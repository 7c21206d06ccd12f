(* Filesystem helpers shared by every writer of per-target artifacts
   (repro bundles, flamegraphs, the result cache). *)

(* Safe under concurrent callers: forked campaign workers create the same
   profile directory at once, and whoever loses the race finds the
   directory already there — that is success, not an error. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let safe_name name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '_')
    name
