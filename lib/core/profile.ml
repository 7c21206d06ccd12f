(* The run-time component (paper §III-B): listens to interpreter events and
   builds, per dynamic loop invocation, everything the cost models need:

   - per-iteration costs, frozen at loop exit;
   - memory RAW conflicts across iterations, with producer/consumer offsets
     normalized per iteration of distance (HELIX deltas);
   - per watched register LCD: hybrid-predictor hit/miss per iteration, and
     producer(def)/consumer(first-use) offsets;
   - the classes of calls observed during any iteration (fn ladder);
   - the invocation tree (parent invocation and parent iteration index).

   WAR/WAW are never recorded: the study assumes lazy versioning with
   in-order commit (paper §II-D). *)

type reg_track = {
  phi_id : int;
  cls : Classify.phi_class;
  predictor : Predictors.Hybrid.t;
  (* def offset (relative to its iteration's start) of the value produced in
     the previous iteration; -1 when unknown *)
  mutable prev_def_rel : int;
  mutable cur_def_rel : int;
  (* pending consumer information for the current iteration *)
  mutable use_seen : bool;
  mutable pending_mispredict : bool;
  mutable pending_iter : int;
  (* aggregates *)
  mutable n_instances : int; (* latch-edge arrivals = predictable instances *)
  mutable n_mispredicts : int;
  mutable max_delta_all : float; (* over all iterations (dep1 sync) *)
  mutable max_delta_mispredict : float; (* over mispredicted iterations *)
  mispredict_iters : int Ir.Vec.t;
}

type inv = {
  inv_id : int;
  fname : string;
  lid : int;
  ls : Classify.loop_static;
  slot : int; (* dense id of the static loop (fname, lid), < profile.n_slots *)
  parent : int; (* inv_id of enclosing invocation, -1 at top level *)
  parent_iter : int;
  start_clock : int;
  mutable end_clock : int;
  (* iteration start clocks while the invocation is active; released at
     loop exit, when [costs] is frozen from them *)
  mutable iter_starts : int Ir.Vec.t;
  mutable cur_start : int; (* start clock of the current iteration *)
  (* per-iteration raw costs (start-to-start deltas, the last closed by the
     exit clock), exact length; empty until loop exit *)
  mutable costs : float array;
  (* consumer iteration -> (worst stall delta, most recent producer
     iteration). The producer index is what lets Partial-DOALL treat reads of
     already-committed writes as satisfied (paper §III-B). *)
  mem_conflicts : (int, float * int) Hashtbl.t;
  tracks : reg_track array;
  mutable call_mask : int;
  mutable n_mem_deps : int; (* count of cross-iteration RAW manifestations *)
  track_mem : bool;
      (* false when the loop is statically Proven_doall and pruning is on:
         this invocation skips address tracking (it cannot conflict) *)
}

(* Iterations of a closed invocation. *)
let n_iters inv = Array.length inv.costs

let cur_iter inv = Ir.Vec.length inv.iter_starts - 1

(* call_mask bits *)
let mask_pure_builtin = 1

let mask_threadsafe_builtin = 2

let mask_unsafe_builtin = 4

let mask_pure_user = 8

let mask_user = 16

(* Per-function tables, built once per profiler so the hooks index arrays
   by loop id and instruction id instead of hashing names. *)
type fn_info = {
  fs : Classify.func_static;
  call_bit : int; (* call_mask bit an instrumented call of it sets *)
  slot_base : int; (* loop [lid] has slot [slot_base + lid] *)
  phi_lid : int array; (* instr id -> loop owning that watched phi, or -1 *)
  phi_track : int array; (* instr id -> index into that loop's tracks *)
  def_phis : int list array; (* instr id -> watched phis it produces *)
}

type t = {
  ms : Classify.module_static;
  fns : (string, fn_info) Hashtbl.t;
  n_slots : int;
  invs : inv Ir.Vec.t;
  mutable stack : inv list; (* innermost first *)
  mutable call_stack : fn_info list;
  (* The shadow last-write vector: word address -> clock of the last
     reported write to it, -1 if none. Guest memory is one flat bump heap,
     so it is indexed directly; it grows to the highest address written. *)
  mutable last_write : int array;
  mem_limit : int; (* the machine's word limit: no valid address reaches it *)
  make_predictor : unit -> Predictors.Hybrid.t; (* predictor bank (ablation) *)
  static_prune : bool; (* honor Proven_doall verdicts when tracking memory *)
  observe_ranges : bool; (* record [phi_obs] for Crosscheck.check_ranges *)
  phi_obs : (string * int, int64 * int64) Hashtbl.t;
      (* (fname, phi_id) -> (min, max) integer value observed at any header
         arrival; fed by on_header_phi, validated by Crosscheck.check_ranges
         against the proven static interval *)
}

let dummy_inv =
  {
    inv_id = -1;
    fname = "";
    lid = -1;
    ls =
      {
        Classify.lid = -1;
        header = -1;
        depth = 0;
        parent = None;
        phis = [||];
        trip = None;
        trip_bound = None;
        dep =
          {
            Deptest.Analysis.verdict = Deptest.Analysis.Unknown;
            trip = None;
            n_loads = 0;
            n_stores = 0;
            n_call_reads = 0;
            n_call_writes = 0;
            n_pairs = 0;
            n_refuted = 0;
          };
        dep_baseline = Deptest.Analysis.Unknown;
        audit = None;
      };
    slot = -1;
    parent = -1;
    parent_iter = 0;
    start_clock = 0;
    end_clock = 0;
    iter_starts = Ir.Vec.create ~dummy:0;
    cur_start = 0;
    costs = [||];
    mem_conflicts = Hashtbl.create 1;
    tracks = [||];
    call_mask = 0;
    n_mem_deps = 0;
    track_mem = true;
  }

let fn_info_of (fs : Classify.func_static) ~slot_base ~defs =
  let n = max 1 (Ir.Func.num_instrs fs.Classify.fn) in
  let phi_lid = Array.make n (-1) and phi_track = Array.make n (-1) in
  Array.iter
    (fun (ls : Classify.loop_static) ->
      List.iteri
        (fun i (pi : Classify.phi_info) ->
          phi_lid.(pi.Classify.phi_id) <- ls.Classify.lid;
          phi_track.(pi.Classify.phi_id) <- i)
        (Classify.watched_phis ls))
    fs.Classify.loops;
  let def_phis = Array.make n [] in
  Hashtbl.iter (fun def phis -> def_phis.(def) <- phis) defs;
  {
    fs;
    call_bit = (if fs.Classify.pure then mask_pure_user else mask_user);
    slot_base;
    phi_lid;
    phi_track;
    def_phis;
  }

(* [def_maps]: fname -> producer instr id -> the watched phis it feeds, as
   built by Classify.watch_plan_of. [mem_limit] must be the machine's word
   limit (default: Interp.Machine's). *)
let create ?(make_predictor = fun () -> Predictors.Hybrid.create ())
    ?(static_prune = true) ?(observe_ranges = false) ?(mem_limit = 1 lsl 26)
    (ms : Classify.module_static) ~def_maps : t =
  let fns = Hashtbl.create 16 in
  let n_slots =
    Hashtbl.fold
      (fun fname (fs : Classify.func_static) slot_base ->
        let defs =
          Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt def_maps fname)
        in
        Hashtbl.replace fns fname (fn_info_of fs ~slot_base ~defs);
        slot_base + Array.length fs.Classify.loops)
      ms.Classify.funcs 0
  in
  {
    ms;
    fns;
    n_slots;
    invs = Ir.Vec.create ~dummy:dummy_inv;
    stack = [];
    call_stack = [];
    last_write = Array.make 1024 (-1);
    mem_limit;
    make_predictor;
    static_prune;
    observe_ranges;
    phi_obs = Hashtbl.create (if observe_ranges then 64 else 1);
  }

let current t =
  match t.call_stack with fi :: _ -> fi | [] -> invalid_arg "no active function"

let new_track t (pi : Classify.phi_info) : reg_track =
  {
    phi_id = pi.Classify.phi_id;
    cls = pi.Classify.cls;
    predictor = t.make_predictor ();
    prev_def_rel = -1;
    cur_def_rel = -1;
    use_seen = false;
    pending_mispredict = false;
    pending_iter = -1;
    n_instances = 0;
    n_mispredicts = 0;
    max_delta_all = 0.0;
    max_delta_mispredict = 0.0;
    mispredict_iters = Ir.Vec.create ~dummy:0;
  }

(* ---- event handlers ----

   Per-invocation telemetry only: loop enter/exit fire once per dynamic
   invocation, so a counter bump and an iteration-count observation here cost
   nothing per instruction (and are no-ops while telemetry is disabled). *)

let c_invocations = Obs.Telemetry.counter "profile.loop.invocations"

let h_loop_iters = Obs.Telemetry.histogram "profile.loop.iterations"

let on_call_enter t ~fname ~clock:_ =
  let fi =
    match Hashtbl.find_opt t.fns fname with
    | Some fi -> fi
    | None -> invalid_arg ("Profile: unknown function " ^ fname)
  in
  t.call_stack <- fi :: t.call_stack;
  (* An instrumented user call observed inside every active iteration. *)
  List.iter (fun inv -> inv.call_mask <- inv.call_mask lor fi.call_bit) t.stack

let on_call_exit t ~fname:_ ~clock:_ =
  match t.call_stack with
  | _ :: rest -> t.call_stack <- rest
  | [] -> invalid_arg "call stack underflow"

let builtin_bits : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, s) ->
      Hashtbl.replace tbl name
        (match s.Ir.Builtins.safety with
        | Ir.Builtins.Pure -> mask_pure_builtin
        | Ir.Builtins.Thread_safe -> mask_threadsafe_builtin
        | Ir.Builtins.Io | Ir.Builtins.Global_state -> mask_unsafe_builtin))
    Ir.Builtins.table;
  tbl

let on_builtin_call t ~name ~clock:_ =
  let bit =
    match Hashtbl.find_opt builtin_bits name with
    | Some b -> b
    | None -> mask_unsafe_builtin
  in
  List.iter (fun inv -> inv.call_mask <- inv.call_mask lor bit) t.stack

let on_loop_enter t ~lid ~clock =
  let fi = current t in
  let ls = fi.fs.Classify.loops.(lid) in
  let parent, parent_iter =
    match t.stack with
    | p :: _ -> (p.inv_id, cur_iter p)
    | [] -> (-1, 0)
  in
  let track_mem =
    (not t.static_prune)
    ||
    match ls.Classify.dep.Deptest.Analysis.verdict with
    | Deptest.Analysis.Proven_doall -> false
    | Deptest.Analysis.Proven_lcd _ | Deptest.Analysis.Unknown -> true
  in
  let inv =
    {
      inv_id = Ir.Vec.length t.invs;
      fname = fi.fs.Classify.fname;
      lid;
      ls;
      slot = fi.slot_base + lid;
      parent;
      parent_iter;
      start_clock = clock;
      end_clock = clock;
      iter_starts = Ir.Vec.create ~dummy:0;
      cur_start = clock;
      costs = [||];
      mem_conflicts = Hashtbl.create 8;
      tracks = Array.of_list (List.map (new_track t) (Classify.watched_phis ls));
      call_mask = 0;
      n_mem_deps = 0;
      track_mem;
    }
  in
  Ir.Vec.push inv.iter_starts clock;
  Ir.Vec.push t.invs inv;
  Obs.Telemetry.incr c_invocations;
  t.stack <- inv :: t.stack

(* Close out per-track pending state for the iteration that just ended: a
   mispredicted instance whose consumer never executed stalls nothing, so
   its delta contribution is 0 (already the default). *)
let finish_iteration_tracks inv =
  Array.iter
    (fun tr ->
      tr.prev_def_rel <- tr.cur_def_rel;
      tr.cur_def_rel <- -1;
      tr.use_seen <- false;
      tr.pending_mispredict <- false)
    inv.tracks

let on_loop_iter t ~lid ~clock =
  match t.stack with
  | inv :: _ when inv.lid = lid ->
      finish_iteration_tracks inv;
      Ir.Vec.push inv.iter_starts clock;
      inv.cur_start <- clock
  | _ -> invalid_arg "loop_iter without matching invocation"

let no_starts = Ir.Vec.create ~dummy:0

let on_loop_exit t ~lid ~clock =
  match t.stack with
  | inv :: rest when inv.lid = lid ->
      finish_iteration_tracks inv;
      inv.end_clock <- clock;
      let starts = inv.iter_starts in
      let n = Ir.Vec.length starts in
      inv.costs <-
        Array.init n (fun k ->
            let e = if k + 1 < n then Ir.Vec.get starts (k + 1) else clock in
            float_of_int (e - Ir.Vec.get starts k));
      inv.iter_starts <- no_starts;
      Obs.Telemetry.observe h_loop_iters (float_of_int n);
      t.stack <- rest
  | _ -> invalid_arg "loop_exit without matching invocation"

(* Iteration of [inv] that was current at clock [w]: the last one started
   at or before it. Requires [start_clock <= w]. *)
let iter_at inv w =
  let starts = inv.iter_starts in
  let lo = ref 0 and hi = ref (Ir.Vec.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Ir.Vec.get starts mid <= w then lo := mid else hi := mid - 1
  done;
  !lo

(* RAW loop-carried dependency manifests in [inv]: the value read at [clock]
   was written at [w], in an earlier iteration of the same invocation. The
   stall delta is the raw producer/consumer offset difference, NOT
   normalized by the iteration distance: the paper's HELIX model
   synchronizes every neighbouring-iteration pair at the worst offset
   observed for any manifesting LCD (§III-B), which is what lets PDOALL beat
   HELIX on loops with rare, long-distance conflicts (Fig. 4). *)
let manifest inv ~w ~clock =
  inv.n_mem_deps <- inv.n_mem_deps + 1;
  let k = cur_iter inv in
  let wi = iter_at inv w in
  let prod_rel = w - Ir.Vec.get inv.iter_starts wi in
  let cons_rel = clock - inv.cur_start in
  let delta = Float.max 0.0 (float_of_int (prod_rel - cons_rel)) in
  let old_d, old_p =
    Option.value ~default:(0.0, -1) (Hashtbl.find_opt inv.mem_conflicts k)
  in
  Hashtbl.replace inv.mem_conflicts k (Float.max old_d delta, max old_p wi)

(* A read whose address was last written at clock [w] manifests a RAW LCD in
   invocation [inv] iff [inv.start_clock <= w < inv.cur_start]: the write
   happened during [inv] (every write reported since it began is the last
   one it saw), but before its current iteration began.

   This rests on one invariant of the interpreter's event stream: loop
   enter/iter events fire at the clock of a Br/Cond_br (or of the Call that
   entered the function), and those instructions never access memory, so no
   write carries the clock of an iteration start. Which side of a start a
   write falls on is therefore never ambiguous.

   Walking outward, enclosing invocations began their current iteration no
   later than the inner one began; once [w] falls in an invocation's
   current iteration, no enclosing invocation can conflict. *)
let rec check_raw stack ~w ~clock =
  match stack with
  | [] -> ()
  | inv :: rest ->
      if w < inv.cur_start then begin
        if inv.track_mem && inv.start_clock <= w then manifest inv ~w ~clock;
        check_raw rest ~w ~clock
      end

let grow_last_write t addr =
  let old = t.last_write in
  let n = min t.mem_limit (max (addr + 1) (2 * Array.length old)) in
  let a = Array.make n (-1) in
  Array.blit old 0 a 0 (Array.length old);
  t.last_write <- a

let on_mem_access t ~addr ~is_write ~clock =
  if is_write then begin
    (* an address outside [0, mem_limit) is out of bounds: the access traps
       right after this hook, so it needs no record *)
    if addr >= Array.length t.last_write && addr < t.mem_limit then
      grow_last_write t addr;
    if addr >= 0 && addr < Array.length t.last_write then
      Array.unsafe_set t.last_write addr clock
  end
  else if addr >= 0 && addr < Array.length t.last_write then begin
    let w = Array.unsafe_get t.last_write addr in
    if w >= 0 then check_raw t.stack ~w ~clock
  end

(* The innermost active invocation of static loop [slot], or [dummy_inv]. *)
let rec find_inv stack slot =
  match stack with
  | [] -> dummy_inv
  | inv :: rest -> if inv.slot = slot then inv else find_inv rest slot

(* The innermost active invocation owning watched phi [phi_id] of the
   current function [fi], or [dummy_inv]. *)
let owner t fi phi_id =
  let lid = fi.phi_lid.(phi_id) in
  if lid < 0 then dummy_inv else find_inv t.stack (fi.slot_base + lid)

(* Observed dynamic envelope per header phi. Floats are skipped: the range
   analysis proves nothing about them (their interval is top anyway). Bools
   use the interpreter's own 0/1 integer encoding. *)
let record_phi_obs t fi ~phi_id ~value =
  let recorded =
    match value with
    | Interp.Rvalue.Vint v -> Some v
    | Interp.Rvalue.Vbool b -> Some (if b then 1L else 0L)
    | Interp.Rvalue.Vfloat _ -> None
  in
  match recorded with
  | None -> ()
  | Some v -> (
      let key = (fi.fs.Classify.fname, phi_id) in
      match Hashtbl.find_opt t.phi_obs key with
      | None -> Hashtbl.replace t.phi_obs key (v, v)
      | Some (lo, hi) ->
          if v < lo || v > hi then Hashtbl.replace t.phi_obs key (min v lo, max v hi))

let on_header_phi t ~phi_id ~value ~clock:_ =
  let fi = current t in
  if t.observe_ranges then record_phi_obs t fi ~phi_id ~value;
  let inv = owner t fi phi_id in
  if inv != dummy_inv then begin
    let tr = inv.tracks.(fi.phi_track.(phi_id)) in
    let k = cur_iter inv in
    let hit = Predictors.Hybrid.step tr.predictor (Predictors.Hybrid.bits_of_rv value) in
    if k > 0 then begin
      tr.n_instances <- tr.n_instances + 1;
      if not hit then begin
        tr.n_mispredicts <- tr.n_mispredicts + 1;
        tr.pending_mispredict <- true;
        tr.pending_iter <- k;
        Ir.Vec.push tr.mispredict_iters k
      end
    end
  end

let on_watched_def t ~instr_id ~clock =
  let fi = current t in
  List.iter
    (fun phi_id ->
      let inv = owner t fi phi_id in
      if inv != dummy_inv then
        inv.tracks.(fi.phi_track.(phi_id)).cur_def_rel <- clock - inv.cur_start)
    fi.def_phis.(instr_id)

let on_watched_use t ~phi_id ~clock =
  let fi = current t in
  let inv = owner t fi phi_id in
  if inv != dummy_inv then begin
    let tr = inv.tracks.(fi.phi_track.(phi_id)) in
    if not tr.use_seen then begin
      tr.use_seen <- true;
      let k = cur_iter inv in
      if k > 0 && tr.prev_def_rel >= 0 then begin
        let use_rel = clock - inv.cur_start in
        let delta = Float.max 0.0 (float_of_int (tr.prev_def_rel - use_rel)) in
        tr.max_delta_all <- Float.max tr.max_delta_all delta;
        if tr.pending_mispredict && tr.pending_iter = k then
          tr.max_delta_mispredict <- Float.max tr.max_delta_mispredict delta
      end
    end
  end

let hooks_of t : Interp.Events.hooks =
  {
    Interp.Events.on_call_enter = (fun ~fname ~clock -> on_call_enter t ~fname ~clock);
    on_call_exit = (fun ~fname ~clock -> on_call_exit t ~fname ~clock);
    on_loop_enter = (fun ~lid ~clock -> on_loop_enter t ~lid ~clock);
    on_loop_iter = (fun ~lid ~clock -> on_loop_iter t ~lid ~clock);
    on_loop_exit = (fun ~lid ~clock -> on_loop_exit t ~lid ~clock);
    on_mem_access =
      (fun ~addr ~is_write ~clock -> on_mem_access t ~addr ~is_write ~clock);
    on_watched_def = (fun ~instr_id ~clock -> on_watched_def t ~instr_id ~clock);
    on_watched_use = (fun ~phi_id ~clock -> on_watched_use t ~phi_id ~clock);
    on_header_phi = (fun ~phi_id ~value ~clock -> on_header_phi t ~phi_id ~value ~clock);
    on_builtin_call = (fun ~name ~clock -> on_builtin_call t ~name ~clock);
  }

(* ---- the collected profile ---- *)

type profile = {
  ms : Classify.module_static;
  invs : inv array; (* creation order: parents before children; all closed *)
  n_slots : int; (* static loops: every [inv.slot] is below this *)
  phi_obs : (string * int, int64 * int64) Hashtbl.t;
      (* observed (min, max) per header phi; recorded only under
         [observe_ranges], for every header phi (Driver ~observe_ranges) *)
  total_cost : int;
  outcome : Interp.Machine.outcome;
  truncated : bool;
      (* the run stopped at a budget (fuel/depth/heap/wall): the profile
         covers the executed prefix only — every invocation is still closed,
         so Evaluate scores the prefix; reports carry the flag through *)
}

(* The profile of a finished run: the machine closes every open invocation
   on every non-trapping exit, budget stops included. *)
let finish (t : t) (outcome : Interp.Machine.outcome) : profile =
  {
    ms = t.ms;
    invs = Ir.Vec.to_array t.invs;
    n_slots = t.n_slots;
    phi_obs = t.phi_obs;
    total_cost = outcome.Interp.Machine.clock;
    outcome;
    truncated = outcome.Interp.Machine.stop <> Interp.Machine.Completed;
  }
