(* Parallel execution-model cost functions (paper §II-C, §III-B). All operate
   on one loop invocation's per-iteration costs (already reduced by nested
   parallelism) plus the iteration-indexed conflict set for the active
   configuration. Costs are in dynamic IR instructions. A [None] result means
   the model cannot profit here and the loop stays serial. *)

(* Fraction of conflicting iterations above which Partial-DOALL gives up and
   marks the loop sequential (paper §III-B). *)
let pdoall_conflict_cutoff = 0.8

type input = {
  iter_costs : float array;
  (* consumer iteration -> (stall delta, most recent producer iteration);
     HELIX consumes the deltas, Partial-DOALL the producer indices *)
  conflicts : (int, float * int) Hashtbl.t;
  (* largest per-iteration stall from register LCD synchronization (dep1/dep2
     under HELIX); 0 when none *)
  reg_sync_delta : float;
  (* the configuration renders this loop unconditionally sequential (dep0
     with non-computable LCDs, a disallowed call, dep1 outside HELIX, ...) *)
  serial_static : bool;
}

(* Explicit loops: [Array.fold_left] would box the float accumulator at
   every iteration. *)
let sum_costs (a : float array) =
  let s = ref 0.0 in
  for k = 0 to Array.length a - 1 do
    s := !s +. a.(k)
  done;
  !s

let serial_cost inp = sum_costs inp.iter_costs

let slowest_iter inp =
  let m = ref 0.0 in
  for k = 0 to Array.length inp.iter_costs - 1 do
    m := Float.max !m inp.iter_costs.(k)
  done;
  !m

let num_conflicting inp = Hashtbl.length inp.conflicts

(* DOALL: all iterations start together; any manifesting conflict (or any
   unsupported construct) abandons parallel execution. *)
let doall_cost inp : float option =
  if inp.serial_static || num_conflicting inp > 0 || inp.reg_sync_delta > 0.0 then None
  else if Array.length inp.iter_costs <= 1 then None
  else Some (slowest_iter inp)

(* Partial-DOALL: phases of conflict-free parallel execution; a conflicting
   iteration re-starts at the end of the previous phase's slowest iteration.
   A read only conflicts while its producer iteration has not yet committed —
   producers from before the current phase's start committed at the phase
   boundary, so they are satisfied. Above the 80% restarting-iteration cutoff
   the loop is sequential. *)
let pdoall_cost ?(cutoff = pdoall_conflict_cutoff) inp : float option =
  let n = Array.length inp.iter_costs in
  if inp.serial_static || inp.reg_sync_delta > 0.0 || n <= 1 then None
  else begin
    let cost = ref 0.0 and phase_max = ref 0.0 in
    let phase_start = ref 0 in
    let restarts = ref 0 in
    let any_conflict = Hashtbl.length inp.conflicts > 0 in
    for k = 0 to n - 1 do
      if any_conflict then begin
        match Hashtbl.find_opt inp.conflicts k with
        | Some (_, prod) when prod >= !phase_start && k > !phase_start ->
            cost := !cost +. !phase_max;
            phase_max := 0.0;
            phase_start := k;
            incr restarts
        | Some _ | None -> ()
      end;
      phase_max := Float.max !phase_max inp.iter_costs.(k)
    done;
    if float_of_int !restarts > cutoff *. float_of_int n then None
    else Some (!cost +. !phase_max)
  end

(* HELIX-style: all iterations start together but synchronize;
   HELIX_time = iter_slowest + delta_largest * num_iter (paper §III-B). *)
let helix_cost inp : float option =
  let n = Array.length inp.iter_costs in
  if inp.serial_static || n <= 1 then None
  else begin
    let delta_largest =
      Hashtbl.fold (fun _ (d, _) acc -> Float.max acc d) inp.conflicts inp.reg_sync_delta
    in
    Some (slowest_iter inp +. (delta_largest *. float_of_int n))
  end

let cost ?pdoall_cutoff (model : Config.model) inp : float option =
  let raw =
    match model with
    | Config.Doall -> doall_cost inp
    | Config.Pdoall -> pdoall_cost ?cutoff:pdoall_cutoff inp
    | Config.Helix -> helix_cost inp
  in
  (* A "parallel" execution slower than serial is reported serial. *)
  match raw with
  | Some c when c < serial_cost inp -> Some c
  | Some _ | None -> None
