(* A repro bundle: everything needed to re-run one pipeline failure
   deterministically, long after the campaign or fuzz run that hit it.
   Self-contained by design — the Looplang source is embedded, the budgets
   and flags are explicit, and the fault-injection plan (if any) is
   recorded — so a bundle saved on one machine replays bit-identically on
   another. Serialized with the shared Util.Json codec; the format is
   versioned so future sessions can migrate old bundles instead of
   rejecting them. *)

module Json = Util.Json

type t = {
  version : int;
  target : string; (* benchmark name / file the failure came from *)
  stage : Loopa.Driver.stage;
  fingerprint : string; (* see Driver: class['@'qualifier] *)
  message : string; (* human-readable failure text *)
  source : string; (* the full Looplang program *)
  configs : Loopa.Config.t list; (* evaluated configurations *)
  fuel : int;
  mem_limit : int option;
  max_depth : int option;
  static_prune : bool;
  crosscheck : bool; (* run the static-vs-dynamic soundness check *)
  check_invariants : bool; (* run the fuzz invariants (opt diff, speedups) *)
  faults : Interp.Machine.fault_plan;
}

let current_version = 1

let make ?(configs = []) ?(fuel = Loopa.Config.default_fuel) ?mem_limit
    ?max_depth ?(static_prune = true) ?(crosscheck = false)
    ?(check_invariants = false) ?(faults = []) ~target ~stage ~fingerprint
    ~message ~source () =
  {
    version = current_version;
    target;
    stage;
    fingerprint;
    message;
    source;
    configs;
    fuel;
    mem_limit;
    max_depth;
    static_prune;
    crosscheck;
    check_invariants;
    faults;
  }

(* ---- fault codec (keys match the CLI's --inject spelling) ---- *)

let fault_key = function
  | Interp.Machine.Inject_div_by_zero -> "div0"
  | Interp.Machine.Inject_oob -> "oob"
  | Interp.Machine.Inject_fuel_out -> "fuel"
  | Interp.Machine.Inject_depth_out -> "depth"

let fault_of_key = function
  | "div0" -> Some Interp.Machine.Inject_div_by_zero
  | "oob" -> Some Interp.Machine.Inject_oob
  | "fuel" -> Some Interp.Machine.Inject_fuel_out
  | "depth" -> Some Interp.Machine.Inject_depth_out
  | _ -> None

(* ---- JSON codec ---- *)

let to_json (b : t) : Json.t =
  let opt_int k = function None -> [] | Some v -> [ (k, Json.Int v) ] in
  Json.Obj
    ([
       ("version", Json.Int b.version);
       ("target", Json.String b.target);
       ("stage", Json.String (Loopa.Driver.stage_name b.stage));
       ("fingerprint", Json.String b.fingerprint);
       ("message", Json.String b.message);
       ("source", Json.String b.source);
       ( "configs",
         Json.List
           (List.map (fun c -> Json.String (Loopa.Config.name c)) b.configs) );
       ("fuel", Json.Int b.fuel);
     ]
    @ opt_int "mem_limit" b.mem_limit
    @ opt_int "max_depth" b.max_depth
    @ [
        ("static_prune", Json.Bool b.static_prune);
        ("crosscheck", Json.Bool b.crosscheck);
        ("check_invariants", Json.Bool b.check_invariants);
        ( "faults",
          Json.List
            (List.map
               (fun (clock, f) ->
                 Json.Obj
                   [
                     ("clock", Json.Int clock);
                     ("kind", Json.String (fault_key f));
                   ])
               b.faults) );
      ])

let to_string b = Json.to_string (to_json b)

let of_json (j : Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let bool k d =
    match Json.member k j with Some (Json.Bool b) -> b | _ -> d
  in
  let req name = Option.to_result ~none:("missing " ^ name) in
  let* version = req "version" (int "version") in
  let* () =
    if version > current_version then
      Error (Printf.sprintf "bundle version %d is newer than this tool" version)
    else Ok ()
  in
  let* target = req "target" (str "target") in
  let* stage =
    req "stage" (Option.bind (str "stage") Loopa.Driver.stage_of_name)
  in
  let* fingerprint = req "fingerprint" (str "fingerprint") in
  let* source = req "source" (str "source") in
  let message = Option.value ~default:"" (str "message") in
  let* configs =
    match Json.member "configs" j with
    | None -> Ok []
    | Some l -> (
        match Json.to_list l with
        | None -> Error "configs is not a list"
        | Some items ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match Json.to_str item with
                | None -> Error "config name is not a string"
                | Some name -> (
                    match Loopa.Config.of_string name with
                    | c -> Ok (c :: acc)
                    | exception Loopa.Config.Bad_config m ->
                        Error ("bad config: " ^ m)))
              (Ok []) items
            |> Result.map List.rev)
  in
  let* faults =
    match Json.member "faults" j with
    | None -> Ok []
    | Some l -> (
        match Json.to_list l with
        | None -> Error "faults is not a list"
        | Some items ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                let clock = Option.bind (Json.member "clock" item) Json.to_int in
                let kind =
                  Option.bind
                    (Option.bind (Json.member "kind" item) Json.to_str)
                    fault_of_key
                in
                match (clock, kind) with
                | Some c, Some k -> Ok ((c, k) :: acc)
                | _ -> Error "bad fault entry")
              (Ok []) items
            |> Result.map List.rev)
  in
  Ok
    {
      version;
      target;
      stage;
      fingerprint;
      message;
      source;
      configs;
      fuel = Option.value ~default:Loopa.Config.default_fuel (int "fuel");
      mem_limit = int "mem_limit";
      max_depth = int "max_depth";
      static_prune = bool "static_prune" true;
      crosscheck = bool "crosscheck" false;
      check_invariants = bool "check_invariants" false;
      faults;
    }

let of_string s =
  match Json.of_string s with
  | Error m -> Error ("not JSON: " ^ m)
  | Ok j -> of_json j

(* ---- file IO ---- *)

let save path (b : t) =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string b);
      output_char oc '\n')

let save_in ~dir ~name b =
  Util.Fs.mkdir_p dir;
  let path = Filename.concat dir (Util.Fs.safe_name name ^ ".repro.json") in
  save path b;
  path

let load path : (t, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error m -> Error m
