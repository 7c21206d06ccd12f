(** A repro bundle: everything needed to re-run one pipeline failure
    deterministically, long after the campaign or fuzz run that hit it.
    Self-contained by design — the Looplang source is embedded, the
    budgets and flags are explicit, and the fault-injection plan (if any)
    is recorded — so a bundle saved on one machine replays bit-identically
    on another. Serialized with the shared {!Util.Json} codec; the format
    is versioned so future sessions can migrate old bundles instead of
    rejecting them. *)

(** The record is deliberately concrete: consumers (the CLI, the
    shrinker, tests) pattern-match and functionally-update its fields. *)
type t = {
  version : int;
  target : string;  (** benchmark name / file the failure came from *)
  stage : Loopa.Driver.stage;
  fingerprint : string;  (** see {!Loopa.Driver}: [class\['@'qualifier\]] *)
  message : string;  (** human-readable failure text *)
  source : string;  (** the full Looplang program *)
  configs : Loopa.Config.t list;  (** evaluated configurations *)
  fuel : int;
  mem_limit : int option;
  max_depth : int option;
  static_prune : bool;
  crosscheck : bool;  (** run the static-vs-dynamic soundness check *)
  check_invariants : bool;
      (** run the fuzz invariants (opt differential, speedup sanity) *)
  faults : Interp.Machine.fault_plan;
}

(** Format version stamped into fresh bundles ({!make}). *)
val current_version : int

val make :
  ?configs:Loopa.Config.t list ->
  ?fuel:int ->
  ?mem_limit:int ->
  ?max_depth:int ->
  ?static_prune:bool ->
  ?crosscheck:bool ->
  ?check_invariants:bool ->
  ?faults:Interp.Machine.fault_plan ->
  target:string ->
  stage:Loopa.Driver.stage ->
  fingerprint:string ->
  message:string ->
  source:string ->
  unit ->
  t

(** Fault codec: keys match the CLI's [--inject] spelling
    (["div0"], ["oob"], ["fuel"], ["depth"]). *)
val fault_key : Interp.Machine.fault -> string

val fault_of_key : string -> Interp.Machine.fault option

val to_json : t -> Util.Json.t
val to_string : t -> string

(** Decoding is tolerant of unknown fields but strict about the fields it
    needs; a malformed document is an [Error], never an exception. *)
val of_json : Util.Json.t -> (t, string) result

val of_string : string -> (t, string) result

(** [save path b] writes the bundle as a single JSON document. *)
val save : string -> t -> unit

(** [save_in ~dir ~name b] creates [dir] if needed ({!Util.Fs.mkdir_p})
    and saves [b] as [<name>.repro.json] there, with [name] made
    file-safe by {!Util.Fs.safe_name}. Returns the path written. Raises
    [Sys_error] when the directory or the file cannot be written. *)
val save_in : dir:string -> name:string -> t -> string

val load : string -> (t, string) result
