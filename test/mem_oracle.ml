(* Naive reference for the profiler's cross-iteration memory RAW detection,
   shared by the suites and fuzz tests.

   The profiler keeps one shadow last-write clock per address and decides
   from clocks alone which active invocations a read conflicts in. This
   reference replays the same event stream the obvious way: every active
   invocation keeps its own last-writer map (address -> iteration, clock),
   every write goes to every tracking invocation on the stack, and a read
   conflicts wherever that map holds a write from an earlier iteration. *)

type event =
  | Call_enter of string
  | Call_exit
  | Loop_enter of int * int (* lid, clock *)
  | Loop_iter of int (* clock *)
  | Loop_exit
  | Mem of int * bool * int (* addr, is_write, clock *)

(* Profile [ms] the way Loopa.Driver does, with the hooks teed into an event
   list (oldest first). *)
let profile_traced ~fuel ~static_prune (ms : Loopa.Classify.module_static) :
    Loopa.Profile.profile * event list =
  let def_maps = Hashtbl.create 16 and plans = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fname fs ->
      let plan, defs = Loopa.Classify.watch_plan_of ~prune_proven_doall:static_prune fs in
      Hashtbl.replace plans fname plan;
      Hashtbl.replace def_maps fname defs)
    ms.Loopa.Classify.funcs;
  let profiler = Loopa.Profile.create ~static_prune ms ~def_maps in
  let base = Loopa.Profile.hooks_of profiler in
  let events = ref [] in
  let log e = events := e :: !events in
  let hooks =
    {
      base with
      Interp.Events.on_call_enter =
        (fun ~fname ~clock ->
          log (Call_enter fname);
          base.Interp.Events.on_call_enter ~fname ~clock);
      on_call_exit =
        (fun ~fname ~clock ->
          log Call_exit;
          base.Interp.Events.on_call_exit ~fname ~clock);
      on_loop_enter =
        (fun ~lid ~clock ->
          log (Loop_enter (lid, clock));
          base.Interp.Events.on_loop_enter ~lid ~clock);
      on_loop_iter =
        (fun ~lid ~clock ->
          log (Loop_iter clock);
          base.Interp.Events.on_loop_iter ~lid ~clock);
      on_loop_exit =
        (fun ~lid ~clock ->
          log Loop_exit;
          base.Interp.Events.on_loop_exit ~lid ~clock);
      on_mem_access =
        (fun ~addr ~is_write ~clock ->
          log (Mem (addr, is_write, clock));
          base.Interp.Events.on_mem_access ~addr ~is_write ~clock);
    }
  in
  let machine =
    Interp.Machine.create ~hooks ~fuel
      ~watch:(fun fname -> Hashtbl.find_opt plans fname)
      ms.Loopa.Classify.modul
  in
  let outcome = Interp.Machine.run_main machine in
  (Loopa.Profile.finish profiler outcome, List.rev !events)

(* What the reference computes per invocation, in creation order. *)
type inv_result = {
  n_mem_deps : int;
  conflicts : (int * float * int) list; (* (consumer iter, delta, producer iter), sorted *)
}

type ref_inv = {
  track_mem : bool;
  starts : int Ir.Vec.t; (* iteration start clocks *)
  last_write : (int, int * int) Hashtbl.t; (* addr -> (iter, clock) *)
  mem_conflicts : (int, float * int) Hashtbl.t;
  mutable deps : int;
}

let naive ~static_prune (ms : Loopa.Classify.module_static) (events : event list) :
    inv_result list =
  let all = ref [] and stack = ref [] and funcs = ref [] in
  let cur_iter inv = Ir.Vec.length inv.starts - 1 in
  List.iter
    (function
      | Call_enter f -> funcs := f :: !funcs
      | Call_exit -> funcs := List.tl !funcs
      | Loop_enter (lid, clock) ->
          let fs = Loopa.Classify.func_static ms (List.hd !funcs) in
          let verdict = fs.Loopa.Classify.loops.(lid).Loopa.Classify.dep.Deptest.Analysis.verdict in
          let inv =
            {
              track_mem = (not static_prune) || verdict <> Deptest.Analysis.Proven_doall;
              starts = Ir.Vec.create ~dummy:0;
              last_write = Hashtbl.create 16;
              mem_conflicts = Hashtbl.create 8;
              deps = 0;
            }
          in
          Ir.Vec.push inv.starts clock;
          all := inv :: !all;
          stack := inv :: !stack
      | Loop_iter clock -> Ir.Vec.push (List.hd !stack).starts clock
      | Loop_exit -> stack := List.tl !stack
      | Mem (addr, is_write, clock) ->
          List.iter
            (fun inv ->
              if inv.track_mem then begin
                let k = cur_iter inv in
                if is_write then Hashtbl.replace inv.last_write addr (k, clock)
                else
                  match Hashtbl.find_opt inv.last_write addr with
                  | Some (wi, wclock) when wi < k ->
                      inv.deps <- inv.deps + 1;
                      let prod_rel = wclock - Ir.Vec.get inv.starts wi in
                      let cons_rel = clock - Ir.Vec.get inv.starts k in
                      let delta = Float.max 0.0 (float_of_int (prod_rel - cons_rel)) in
                      let old_d, old_p =
                        Option.value ~default:(0.0, -1)
                          (Hashtbl.find_opt inv.mem_conflicts k)
                      in
                      Hashtbl.replace inv.mem_conflicts k (Float.max old_d delta, max old_p wi)
                  | Some _ | None -> ()
              end)
            !stack)
    events;
  List.rev_map
    (fun inv ->
      {
        n_mem_deps = inv.deps;
        conflicts =
          Hashtbl.fold (fun k (d, p) acc -> (k, d, p) :: acc) inv.mem_conflicts []
          |> List.sort compare;
      })
    !all

let of_profile (p : Loopa.Profile.profile) : inv_result list =
  Array.to_list p.Loopa.Profile.invs
  |> List.map (fun (inv : Loopa.Profile.inv) ->
         {
           n_mem_deps = inv.Loopa.Profile.n_mem_deps;
           conflicts =
             Hashtbl.fold
               (fun k (d, p) acc -> (k, d, p) :: acc)
               inv.Loopa.Profile.mem_conflicts []
             |> List.sort compare;
         })

(* Profile [ms] once and check the profiler's per-invocation RAW results
   against the reference over the same events. Returns the profile and the
   number of invocations that recorded a conflict; fails with [what] named
   on the first disagreement. *)
let check ~what ~fuel ~static_prune ms : Loopa.Profile.profile * int =
  let p, events = profile_traced ~fuel ~static_prune ms in
  let got = of_profile p and want = naive ~static_prune ms events in
  if List.length got <> List.length want then
    Alcotest.failf "%s: %d invocations profiled, %d replayed" what (List.length got)
      (List.length want);
  List.iteri
    (fun id (g, w) ->
      if g <> w then
        Alcotest.failf
          "%s (static_prune=%b): invocation %d: profiler %d deps / %d conflicting \
           iterations, reference %d / %d"
          what static_prune id g.n_mem_deps (List.length g.conflicts) w.n_mem_deps
          (List.length w.conflicts))
    (List.combine got want);
  (p, List.length (List.filter (fun r -> r.conflicts <> []) want))
