(* Configuration evaluation over a collected profile: bottom-up over the
   dynamic loop-invocation tree (children were created after their parents,
   so a reverse index walk sees every child before its parent), reducing
   iteration costs by nested savings, applying the execution model at each
   level, and propagating savings and coverage upward (paper §III-B: "the
   loop execution cost ... is then propagated up to the nest of parent loops
   and functions"). *)

type loop_result = {
  fname : string;
  lid : int;
  header : int;
  depth : int;
  invocations : int;
  parallel_invocations : int;
  serial_cost : float; (* Σ over invocations, nested savings included *)
  final_cost : float;
  mem_dep_manifestations : int;
  conflicting_iterations : int;
  total_iterations : int;
  static_verdict : Deptest.Analysis.verdict; (* the compile-time side's call *)
}

type report = {
  config : Config.t;
  total_cost : int; (* serial program cost: dynamic IR instructions *)
  parallel_cost : float;
  speedup : float;
  coverage_pct : float; (* % of dynamic instructions inside parallel loops *)
  static_coverage_pct : float;
      (* % of dynamic instructions inside loops the static dependence tester
         proved DOALL — the static-vs-dynamic parallelism gap, configuration
         independent *)
  truncated : bool;
      (* the underlying profile covers a budget-truncated prefix of the
         program: speedups are over the executed prefix only *)
  loops : loop_result list; (* sorted by serial cost, descending *)
}

(* Does [mask] contain a call class that configuration [fn] cannot
   parallelize over? *)
let call_violation (fn : Config.fn) mask =
  let open Profile in
  match fn with
  | Config.Fn0 -> mask <> 0
  | Config.Fn1 ->
      mask land (mask_threadsafe_builtin lor mask_unsafe_builtin lor mask_user) <> 0
  | Config.Fn2 -> mask land mask_unsafe_builtin <> 0
  | Config.Fn3 -> false

(* Is this register LCD in the effective non-computable set for [reduc]? *)
let track_active (reduc : Config.reduc) (tr : Profile.reg_track) =
  match (tr.Profile.cls, reduc) with
  | Classify.Reduction _, Config.Reduc1 -> false
  | Classify.Reduction _, Config.Reduc0 -> true
  | Classify.Non_computable, _ -> true
  | Classify.Computable, _ -> false (* never watched, defensive *)

(* Ablation knobs; the defaults are the paper's model (DESIGN.md §4). *)
type knobs = {
  pdoall_cutoff : float; (* Partial-DOALL restart fraction before serial *)
  helix_distance_normalized : bool;
      (* divide each memory stall delta by its dependence distance instead of
         charging the raw producer/consumer offset difference every iteration *)
}

let default_knobs =
  { pdoall_cutoff = Model.pdoall_conflict_cutoff; helix_distance_normalized = false }

(* Model-evaluation telemetry: invocations scored per execution model,
   invocations the model actually parallelized, conflicting-iteration totals,
   and the speedup distribution across configurations. *)
let c_doall_scored = Obs.Telemetry.counter "model.doall.scored"

let c_pdoall_scored = Obs.Telemetry.counter "model.pdoall.scored"

let c_helix_scored = Obs.Telemetry.counter "model.helix.scored"

let c_parallel_invs = Obs.Telemetry.counter "model.parallel_invocations"

let c_conflict_iters = Obs.Telemetry.counter "model.conflicting_iterations"

let h_speedup = Obs.Telemetry.histogram "evaluate.speedup"

let evaluate ?(knobs = default_knobs) (p : Profile.profile) (config : Config.t) :
    report =
  Obs.Telemetry.with_span "evaluate" ~attrs:[ ("config", Config.name config) ]
  @@ fun () ->
  let n = Array.length p.Profile.invs in
  let final = Array.make n 0.0 in
  let covered = Array.make n 0.0 in
  let child_savings : float array option array = Array.make n None in
  let child_covered = Array.make n 0.0 in
  let static_covered = Array.make n 0.0 in
  let child_static = Array.make n 0.0 in
  let is_parallel = Array.make n false in
  let prog_savings = ref 0.0 and prog_covered = ref 0.0 in
  let prog_static = ref 0.0 in
  for id = n - 1 downto 0 do
    let inv = p.Profile.invs.(id) in
    let raw = inv.Profile.costs in
    let raw_total = float_of_int (inv.Profile.end_clock - inv.Profile.start_clock) in
    (* Without nested savings every iteration keeps its raw cost, so the
       stall scale factors below are all exactly 1. *)
    let reduced =
      match child_savings.(id) with
      | None -> raw
      | Some sav ->
          let r = Array.make (Array.length raw) 0.0 in
          for k = 0 to Array.length raw - 1 do
            r.(k) <- raw.(k) -. sav.(k)
          done;
          r
    in
    let scaled = child_savings.(id) <> None in
    let scale k = if raw.(k) > 0.0 then reduced.(k) /. raw.(k) else 1.0 in
    let serial_reduced = Model.sum_costs reduced in
    let overall_scale = if raw_total > 0.0 then serial_reduced /. raw_total else 1.0 in
    (* Active register LCD set under the reduc flag. *)
    let active_tracks =
      Array.to_list inv.Profile.tracks |> List.filter (track_active config.Config.reduc)
    in
    let serial_static = ref (call_violation config.Config.fn inv.Profile.call_mask) in
    let reg_sync_delta = ref 0.0 in
    (* Memory conflicts apply under every model; scale the stall by the
       consumer iteration's reduction factor. Mispredicted register LCD
       instances join them under dep2. When neither changes anything, the
       profile's own table is passed on, read-only. *)
    let dep2_adds =
      config.Config.dep = Config.Dep2
      && List.exists (fun tr -> Ir.Vec.length tr.Profile.mispredict_iters > 0) active_tracks
    in
    let conflicts =
      if not (scaled || knobs.helix_distance_normalized || dep2_adds) then
        inv.Profile.mem_conflicts
      else begin
        let c = Hashtbl.create (Hashtbl.length inv.Profile.mem_conflicts) in
        Hashtbl.iter
          (fun k (delta, prod) ->
            let delta =
              if knobs.helix_distance_normalized && k > prod then
                delta /. float_of_int (k - prod)
              else delta
            in
            Hashtbl.replace c k (delta *. scale k, prod))
          inv.Profile.mem_conflicts;
        c
      end
    in
    (match config.Config.dep with
    | Config.Dep0 -> if active_tracks <> [] then serial_static := true
    | Config.Dep1 ->
        (* Lowered to memory: a frequent dependency every iteration. Only
           HELIX synchronization supports that; elsewhere it serializes. *)
        if active_tracks <> [] then begin
          match config.Config.model with
          | Config.Helix ->
              List.iter
                (fun tr ->
                  reg_sync_delta :=
                    Float.max !reg_sync_delta
                      (tr.Profile.max_delta_all *. overall_scale))
                active_tracks
          | Config.Doall | Config.Pdoall -> serial_static := true
        end
    | Config.Dep2 ->
        (* Mispredicted instances manifest; predicted ones are free. *)
        List.iter
          (fun tr ->
            (match config.Config.model with
            | Config.Helix ->
                if Ir.Vec.length tr.Profile.mispredict_iters > 0 then
                  reg_sync_delta :=
                    Float.max !reg_sync_delta
                      (tr.Profile.max_delta_mispredict *. overall_scale)
            | Config.Doall | Config.Pdoall -> ());
            Ir.Vec.iter
              (fun k ->
                let d = tr.Profile.max_delta_mispredict *. scale k in
                let old_d, old_p =
                  Option.value ~default:(0.0, -1) (Hashtbl.find_opt conflicts k)
                in
                (* register LCD instances always come from the previous
                   iteration *)
                Hashtbl.replace conflicts k (Float.max old_d d, max old_p (k - 1)))
              tr.Profile.mispredict_iters)
          active_tracks
    | Config.Dep3 -> ());
    let inp =
      {
        Model.iter_costs = reduced;
        conflicts;
        reg_sync_delta = !reg_sync_delta;
        serial_static = !serial_static;
      }
    in
    let model_cost =
      Model.cost ~pdoall_cutoff:knobs.pdoall_cutoff config.Config.model inp
    in
    Obs.Telemetry.incr
      (match config.Config.model with
      | Config.Doall -> c_doall_scored
      | Config.Pdoall -> c_pdoall_scored
      | Config.Helix -> c_helix_scored);
    Obs.Telemetry.add c_conflict_iters (Hashtbl.length conflicts);
    let f =
      match model_cost with Some c -> Float.min c serial_reduced | None -> serial_reduced
    in
    final.(id) <- f;
    is_parallel.(id) <- (match model_cost with Some c -> c < serial_reduced | None -> false);
    if is_parallel.(id) then Obs.Telemetry.incr c_parallel_invs;
    covered.(id) <- (if is_parallel.(id) then raw_total else child_covered.(id));
    static_covered.(id) <-
      (match inv.Profile.ls.Classify.dep.Deptest.Analysis.verdict with
      | Deptest.Analysis.Proven_doall -> raw_total
      | Deptest.Analysis.Proven_lcd _ | Deptest.Analysis.Unknown -> child_static.(id));
    (* Propagate savings and coverage to the parent. *)
    let saving = raw_total -. f in
    if inv.Profile.parent >= 0 then begin
      let parent = p.Profile.invs.(inv.Profile.parent) in
      let sav =
        match child_savings.(inv.Profile.parent) with
        | Some s -> s
        | None ->
            let s = Array.make (Profile.n_iters parent) 0.0 in
            child_savings.(inv.Profile.parent) <- Some s;
            s
      in
      sav.(inv.Profile.parent_iter) <- sav.(inv.Profile.parent_iter) +. saving;
      child_covered.(inv.Profile.parent) <-
        child_covered.(inv.Profile.parent) +. covered.(id);
      child_static.(inv.Profile.parent) <-
        child_static.(inv.Profile.parent) +. static_covered.(id)
    end
    else begin
      prog_savings := !prog_savings +. saving;
      prog_covered := !prog_covered +. covered.(id);
      prog_static := !prog_static +. static_covered.(id)
    end
  done;
  (* Aggregate per static loop, in order of each loop's first invocation. *)
  let by_slot : loop_result option array = Array.make p.Profile.n_slots None in
  let order = ref [] in
  for id = 0 to n - 1 do
    let inv = p.Profile.invs.(id) in
    let ls = inv.Profile.ls in
    let cur =
      match by_slot.(inv.Profile.slot) with
      | Some r -> r
      | None ->
          order := inv.Profile.slot :: !order;
          {
            fname = inv.Profile.fname;
            lid = inv.Profile.lid;
            header = ls.Classify.header;
            depth = ls.Classify.depth;
            invocations = 0;
            parallel_invocations = 0;
            serial_cost = 0.0;
            final_cost = 0.0;
            mem_dep_manifestations = 0;
            conflicting_iterations = 0;
            total_iterations = 0;
            static_verdict = ls.Classify.dep.Deptest.Analysis.verdict;
          }
    in
    let raw_total = float_of_int (inv.Profile.end_clock - inv.Profile.start_clock) in
    let serial_reduced =
      (* recompute cheaply: final when serial equals reduced serial *)
      match child_savings.(id) with
      | None -> raw_total
      | Some sav -> raw_total -. Model.sum_costs sav
    in
    by_slot.(inv.Profile.slot) <-
      Some
        {
          cur with
          invocations = cur.invocations + 1;
          parallel_invocations =
            (cur.parallel_invocations + if is_parallel.(id) then 1 else 0);
          serial_cost = cur.serial_cost +. serial_reduced;
          final_cost = cur.final_cost +. final.(id);
          mem_dep_manifestations = cur.mem_dep_manifestations + inv.Profile.n_mem_deps;
          conflicting_iterations =
            cur.conflicting_iterations + Hashtbl.length inv.Profile.mem_conflicts;
          total_iterations = cur.total_iterations + Profile.n_iters inv;
        }
  done;
  let loops =
    List.rev_map (fun slot -> Option.get by_slot.(slot)) !order
    |> List.stable_sort (fun a b -> Float.compare b.serial_cost a.serial_cost)
  in
  let total = p.Profile.total_cost in
  let parallel_cost = Float.max 1.0 (float_of_int total -. !prog_savings) in
  let speedup = float_of_int total /. parallel_cost in
  Obs.Telemetry.observe h_speedup speedup;
  {
    config;
    total_cost = total;
    parallel_cost;
    speedup;
    truncated = p.Profile.truncated;
    coverage_pct =
      (if total > 0 then 100.0 *. !prog_covered /. float_of_int total else 0.0);
    static_coverage_pct =
      (if total > 0 then 100.0 *. !prog_static /. float_of_int total else 0.0);
    loops;
  }
