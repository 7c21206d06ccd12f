(** Filesystem helpers for per-target artifact files. *)

(** Create [dir] and any missing parents. Race-tolerant: a directory that
    appears concurrently (another process won the race) counts as
    created. Raises [Sys_error] on any other failure. *)
val mkdir_p : string -> unit

(** [name] with every byte outside [[A-Za-z0-9_-]] replaced by ['_'] —
    a target or loop name made safe as a file-name stem. *)
val safe_name : string -> string
