(** Parallel execution-model cost functions (paper §II-C, §III-B). All costs
    are in dynamic IR instructions; all functions treat one loop invocation. *)

(** Partial-DOALL marks the loop sequential when more than this fraction of
    iterations trigger a phase restart (paper §III-B: 80%). *)
val pdoall_conflict_cutoff : float

type input = {
  iter_costs : float array;
      (** per-iteration cost, already reduced by nested parallelism *)
  conflicts : (int, float * int) Hashtbl.t;
      (** consumer iteration -> (stall delta, most recent producer
          iteration); HELIX consumes the deltas, Partial-DOALL the producer
          indices (a producer that committed in an earlier phase satisfies
          the read) *)
  reg_sync_delta : float;
      (** largest per-iteration stall from register-LCD synchronization
          (dep1/dep2 under HELIX); 0 when none *)
  serial_static : bool;
      (** the configuration renders this loop unconditionally sequential *)
}

(** Left-to-right sum of a cost array (no per-element boxing). *)
val sum_costs : float array -> float

val serial_cost : input -> float

val slowest_iter : input -> float

val num_conflicting : input -> int

(** [None] means the model cannot run this loop in parallel. *)
val doall_cost : input -> float option

(** [cutoff] overrides {!pdoall_conflict_cutoff} (ablation). *)
val pdoall_cost : ?cutoff:float -> input -> float option

(** [HELIX_time = iter_slowest + delta_largest * num_iter]. *)
val helix_cost : input -> float option

(** Model dispatch with the paper's serial cutoff: a "parallel" schedule
    that is not strictly faster than serial is reported as [None]. *)
val cost : ?pdoall_cutoff:float -> Config.model -> input -> float option
