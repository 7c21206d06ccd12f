(* Content-addressed on-disk result cache (see the .mli).

   Entries are single JSON documents named <key>.json where the key is a
   64-bit FNV-1a hash (hex) over (source bytes, knob fingerprint, code
   revision). Writes go through a temp file in the same directory plus
   rename(2), so concurrent writers of the same key race atomically —
   last rename wins, readers never observe a partial document. Loads are
   corruption-tolerant by contract: anything that fails to read, parse
   or self-identify is a miss (and the poisoned file is dropped), never
   a crash — a cache must not be able to take the pipeline down.

   Eviction is size-capped LRU over an in-memory recency table seeded
   from file mtimes at open; the table is per-handle bookkeeping, the
   files are the truth. *)

module Json = Util.Json

(* hit/miss/evict observability; no-ops while telemetry is disabled *)
let c_hit = Obs.Telemetry.counter "cache.hit"
let c_miss = Obs.Telemetry.counter "cache.miss"
let c_evict = Obs.Telemetry.counter "cache.evict"

let default_max_bytes = 256 * 1024 * 1024

type entry = { mutable size : int; mutable tick : int }

type t = {
  dir : string;
  max_bytes : int;
  entries : (string, entry) Hashtbl.t;
  mutable total : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let code_rev () =
  match Sys.getenv_opt "LOOPA_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> "unknown"

(* ---- key derivation ---- *)

let fnv1a64 (s : string) : int64 =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let key ~source ~fingerprint =
  (* NUL separators: no (source, fingerprint) pair can collide with a
     shifted split of another, and neither field contains NUL *)
  Printf.sprintf "%016Lx"
    (fnv1a64 (String.concat "\x00" [ source; fingerprint; code_rev () ]))

(* ---- store ---- *)

let is_entry_name name =
  String.length name = 21
  && Filename.check_suffix name ".json"
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       (String.sub name 0 16)

let entry_path t k = Filename.concat t.dir (k ^ ".json")

let open_dir ?(max_bytes = default_max_bytes) dir =
  Util.Fs.mkdir_p dir;
  let t =
    {
      dir;
      max_bytes;
      entries = Hashtbl.create 64;
      total = 0;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  (* seed recency from mtimes: oldest files get the lowest ticks *)
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter is_entry_name
    |> List.filter_map (fun name ->
           match Unix.stat (Filename.concat dir name) with
           | st -> Some (Filename.chop_suffix name ".json", st)
           | exception Unix.Unix_error _ -> None)
    |> List.sort (fun (_, a) (_, b) ->
           compare a.Unix.st_mtime b.Unix.st_mtime)
  in
  List.iter
    (fun (k, st) ->
      t.clock <- t.clock + 1;
      Hashtbl.replace t.entries k { size = st.Unix.st_size; tick = t.clock };
      t.total <- t.total + st.Unix.st_size)
    files;
  t

let forget t k =
  match Hashtbl.find_opt t.entries k with
  | Some e ->
      t.total <- t.total - e.size;
      Hashtbl.remove t.entries k
  | None -> ()

let find t k =
  let path = entry_path t k in
  let loaded =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> (
        match Json.of_string s with
        | Ok j when Json.member "key" j = Some (Json.String k) ->
            Json.member "value" j
        | Ok _ | Error _ -> None)
    | exception Sys_error _ -> None
  in
  match loaded with
  | Some v ->
      t.clock <- t.clock + 1;
      (match Hashtbl.find_opt t.entries k with
      | Some e -> e.tick <- t.clock
      | None ->
          (* stored by another process since open: adopt it *)
          let size =
            match Unix.stat path with
            | st -> st.Unix.st_size
            | exception Unix.Unix_error _ -> 0
          in
          Hashtbl.replace t.entries k { size; tick = t.clock };
          t.total <- t.total + size);
      t.hits <- t.hits + 1;
      Obs.Telemetry.incr c_hit;
      Some v
  | None ->
      (* a bad entry is a miss, never a crash; drop the poisoned file so
         the next store starts clean *)
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
      forget t k;
      t.misses <- t.misses + 1;
      Obs.Telemetry.incr c_miss;
      None

let evict_over_cap t ~keep =
  let victim () =
    Hashtbl.fold
      (fun k e best ->
        if k = keep then best
        else
          match best with
          | Some (_, be) when be.tick <= e.tick -> best
          | _ -> Some (k, e))
      t.entries None
  in
  let rec go () =
    if t.total > t.max_bytes then
      match victim () with
      | None -> () (* nothing but [keep] left: the cap yields *)
      | Some (k, _) ->
          (try Sys.remove (entry_path t k) with Sys_error _ -> ());
          forget t k;
          t.evictions <- t.evictions + 1;
          Obs.Telemetry.incr c_evict;
          go ()
  in
  go ()

let store t k v =
  let body =
    Json.to_string
      (Json.Obj
         [
           ("key", Json.String k);
           ("rev", Json.String (code_rev ()));
           ("value", v);
         ])
  in
  let tmp =
    Filename.concat t.dir (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ()) k)
  in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc body);
  Unix.rename tmp (entry_path t k);
  t.clock <- t.clock + 1;
  let size = String.length body in
  (match Hashtbl.find_opt t.entries k with
  | Some e ->
      t.total <- t.total - e.size + size;
      e.size <- size;
      e.tick <- t.clock
  | None ->
      Hashtbl.replace t.entries k { size; tick = t.clock };
      t.total <- t.total + size);
  evict_over_cap t ~keep:k

(* ---- introspection ---- *)

let stats t = (t.hits, t.misses, t.evictions)

let size_bytes t = t.total
