(* End-to-end pipeline: Looplang source -> canonicalized SSA -> static
   classification -> instrumented execution -> profile -> per-configuration
   reports. This is the whole Loopapalooza flow of paper §III. *)

type analysis = {
  ms : Classify.module_static;
  profile : Profile.profile;
}

(* ---- uniform stage failures ----

   Every way the pipeline can reject or abort a program is classified by the
   stage that failed plus a *fingerprint*: a short stable identity string
   such as [compile:syntax@3:7] or [trap:div_by_zero@1234]. Fingerprints
   have two parts: the class (everything before the first '@'), which names
   what went wrong, and an optional '@'-suffixed instance qualifier
   (source position, interpreter clock) pinning where. Replay compares
   fingerprints strictly — the interpreter is deterministic, so an identical
   re-run must reproduce the qualifier bit-for-bit — while the shrinker
   compares classes only, since deleting code legitimately moves positions
   and clocks. *)

type stage =
  | Compile
  | Verify
  | Prepare
  | Execute
  | Crosscheck
  | Evaluate
  | Fuzz
  | Parrun  (* guarded parallel loop execution (lib/parrun) *)

let stage_name = function
  | Compile -> "compile"
  | Verify -> "verify"
  | Prepare -> "prepare"
  | Execute -> "execute"
  | Crosscheck -> "crosscheck"
  | Evaluate -> "evaluate"
  | Fuzz -> "fuzz"
  | Parrun -> "parrun"

let stage_of_name = function
  | "compile" -> Some Compile
  | "verify" -> Some Verify
  | "prepare" -> Some Prepare
  | "execute" -> Some Execute
  | "crosscheck" -> Some Crosscheck
  | "evaluate" -> Some Evaluate
  | "fuzz" -> Some Fuzz
  | "parrun" -> Some Parrun
  | _ -> None

type failure = { stage : stage; fingerprint : string; message : string }

let failure_to_string f =
  Printf.sprintf "[%s] %s: %s" (stage_name f.stage) f.fingerprint f.message

(* Class part of a fingerprint: everything before the first '@'. *)
let fingerprint_class fp =
  match String.index_opt fp '@' with Some i -> String.sub fp 0 i | None -> fp

let same_fingerprint ?(strict = true) a b =
  if strict then String.equal a b
  else String.equal (fingerprint_class a) (fingerprint_class b)

(* Short stable digest for failure classes whose natural identity is free
   text (verifier/runtime messages): FNV-1a over the message, printed as 8
   hex digits. Deliberately not [Hashtbl.hash], whose value is not
   guaranteed stable across OCaml versions — bundles outlive builds. *)
let hash8 (s : string) =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  Printf.sprintf "%08x" !h

let trap_key = function
  | Interp.Rvalue.Div_by_zero -> "div_by_zero"
  | Interp.Rvalue.Out_of_bounds -> "out_of_bounds"
  | Interp.Rvalue.Negative_alloc -> "negative_alloc"

let budget_key = function
  | Interp.Rvalue.Fuel -> "fuel"
  | Interp.Rvalue.Call_depth -> "call_depth"
  | Interp.Rvalue.Heap -> "heap"
  | Interp.Rvalue.Wall -> "wall"

let compile_failure (e : Frontend.error) =
  {
    stage = Compile;
    fingerprint =
      Printf.sprintf "compile:%s@%d:%d"
        (Frontend.error_kind_name e.Frontend.kind)
        e.Frontend.pos.Frontend.Ast.line e.Frontend.pos.Frontend.Ast.col;
    message = Frontend.error_to_string e;
  }

let verifier_failure ~stage msg =
  { stage; fingerprint = "verifier:" ^ hash8 msg; message = msg }

let trap_failure ~clock kind msg =
  {
    stage = Execute;
    fingerprint = Printf.sprintf "trap:%s@%d" (trap_key kind) clock;
    message = msg;
  }

let budget_failure kind =
  {
    stage = Execute;
    fingerprint = "budget:" ^ budget_key kind;
    message =
      Interp.Rvalue.budget_kind_to_string kind
      ^ " budget exhausted before any useful work";
  }

(* The catch-all for exceptions no stage claims: still classified, with the
   exception constructor (stripped of its argument text) as the class. *)
let crash_failure ~stage exn =
  let printed = Printexc.to_string exn in
  let ctor =
    match String.index_opt printed '(' with
    | Some i -> String.trim (String.sub printed 0 i)
    | None -> printed
  in
  { stage; fingerprint = Printf.sprintf "crash:%s@%s" ctor (hash8 printed); message = printed }

(* ---- telemetry ----

   Run-level interpreter counters, fed once per profiling run from the
   machine's own tallies. The interpreter's per-instruction hot loop carries
   no instrumentation calls at all (see Obs.Telemetry): the machine counts
   for itself and the driver publishes on every exit path — normal
   completion, budget truncation, and traps alike. *)

let c_runs = Obs.Telemetry.counter "interp.runs"

let c_instrs = Obs.Telemetry.counter "interp.instructions"

let c_mem_accesses = Obs.Telemetry.counter "interp.mem.accesses"

let c_mem_events = Obs.Telemetry.counter "interp.mem.events"

let c_mem_pruned = Obs.Telemetry.counter "interp.mem.pruned"

let c_traps = Obs.Telemetry.counter "interp.traps"

let c_truncations = Obs.Telemetry.counter "interp.truncations"

let record_run (machine : Interp.Machine.t) =
  Obs.Telemetry.incr c_runs;
  Obs.Telemetry.add c_instrs (Interp.Machine.instructions_retired machine);
  Obs.Telemetry.add c_mem_accesses (Interp.Machine.mem_accesses machine);
  Obs.Telemetry.add c_mem_events (Interp.Machine.mem_events machine);
  Obs.Telemetry.add c_mem_pruned (Interp.Machine.mem_events_pruned machine)

(* Canonicalize and statically analyze a module (destructive on [m]).
   [optimize] first runs the constant-folding / CFG-cleanup / DCE pipeline —
   the stand-in for the paper's "-Ofast IR" starting point. *)
let prepare ?(optimize = false) (m : Ir.Func.modul) : Classify.module_static =
  Obs.Telemetry.with_span "prepare" @@ fun () ->
  if optimize then Opt.Pipeline.run_module m;
  Obs.Telemetry.with_span "loop-simplify" (fun () ->
      Cfg.Loop_simplify.run_module m);
  Obs.Telemetry.with_span "verify" (fun () -> Ir.Verifier.check_module_exn m);
  Classify.analyze_module m

(* Execute the instrumented program once, collecting the profile all
   configurations are evaluated against. [static_prune] (default true) lets
   statically Proven_doall loops skip dynamic address tracking — sound
   because such loops cannot record conflicts anyway; pass false to collect
   the unpruned profile (e.g. for Crosscheck). Exhausting a budget (fuel,
   call depth, heap, wall deadline) truncates rather than fails: the machine
   closes open invocations and the profile is marked [truncated]. *)
let profiling_machine ?(fuel = Config.default_fuel) ?mem_limit ?max_depth
    ?deadline ?faults ?make_predictor ?(static_prune = true)
    ?(observe_ranges = false) ?hotspot (ms : Classify.module_static) :
    Profile.t * Interp.Machine.t =
  let def_maps = Hashtbl.create 16 in
  let watch_plans = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fname fs ->
      let plan, defs =
        Classify.watch_plan_of ~prune_proven_doall:static_prune
          ~observe_all_phis:observe_ranges fs
      in
      Hashtbl.replace watch_plans fname plan;
      Hashtbl.replace def_maps fname defs)
    ms.Classify.funcs;
  let profiler =
    Profile.create ?make_predictor ~static_prune ~observe_ranges ?mem_limit ms ~def_maps
  in
  (* the hotspot profiler tees the hooks (its shadow stack observes the
     same call/loop events the profiler consumes) and arms the machine's
     opcode counters and deterministic sampler *)
  let hooks =
    let base = Profile.hooks_of profiler in
    match hotspot with None -> base | Some h -> Prof.Hotspot.tee h base
  in
  let machine =
    Interp.Machine.create ~hooks ~fuel ?mem_limit ?max_depth ?deadline ?faults
      ~watch:(fun fname -> Hashtbl.find_opt watch_plans fname)
      ms.Classify.modul
  in
  Option.iter (fun h -> Prof.Hotspot.arm h machine) hotspot;
  (profiler, machine)

let profile_module ?fuel ?mem_limit ?max_depth ?deadline ?faults
    ?make_predictor ?static_prune ?observe_ranges ?hotspot
    (ms : Classify.module_static) : Profile.profile =
  let profiler, machine =
    profiling_machine ?fuel ?mem_limit ?max_depth ?deadline ?faults
      ?make_predictor ?static_prune ?observe_ranges ?hotspot ms
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Prof.Hotspot.finish hotspot)
    (fun () ->
      let outcome =
        Obs.Telemetry.with_span "profile.interp" (fun () ->
            Interp.Machine.run_main machine)
      in
      record_run machine;
      if outcome.Interp.Machine.stop <> Interp.Machine.Completed then
        Obs.Telemetry.incr c_truncations;
      Profile.finish profiler outcome)

(* As [profile_module], but every way the run can fail comes back as a
   classified {!failure} instead of an exception — with the machine clock at
   the moment a trap fired baked into the fingerprint, which an exception
   cannot carry. Budget exhaustion is still a success (a truncated
   profile), matching [profile_module]. *)
let profile_result ?fuel ?mem_limit ?max_depth ?deadline ?faults
    ?make_predictor ?static_prune ?observe_ranges ?hotspot
    (ms : Classify.module_static) : (Profile.profile, failure) result =
  let profiler, machine =
    profiling_machine ?fuel ?mem_limit ?max_depth ?deadline ?faults
      ?make_predictor ?static_prune ?observe_ranges ?hotspot ms
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Prof.Hotspot.finish hotspot)
  @@ fun () ->
  match
    Obs.Telemetry.with_span "profile.interp" (fun () ->
        Interp.Machine.run_main machine)
  with
  | outcome ->
      record_run machine;
      if outcome.Interp.Machine.stop <> Interp.Machine.Completed then
        Obs.Telemetry.incr c_truncations;
      Ok (Profile.finish profiler outcome)
  | exception Interp.Rvalue.Trap (kind, msg) ->
      record_run machine;
      Obs.Telemetry.incr c_traps;
      Error (trap_failure ~clock:(Interp.Machine.clock machine) kind msg)
  | exception Interp.Rvalue.Runtime_error msg ->
      record_run machine;
      Error
        {
          stage = Execute;
          fingerprint = "runtime:" ^ hash8 msg;
          message = "runtime error: " ^ msg;
        }
  | exception Stack_overflow ->
      record_run machine;
      Error
        {
          stage = Execute;
          fingerprint = "crash:Stack_overflow";
          message = "stack overflow during execution";
        }

let analyze_source ?fuel ?mem_limit ?max_depth ?deadline ?faults ?make_predictor
    ?optimize ?static_prune ?observe_ranges ?hotspot (src : string) : analysis =
  Obs.Telemetry.with_span "analyze" @@ fun () ->
  let m = Frontend.compile_exn src in
  let ms = prepare ?optimize m in
  {
    ms;
    profile =
      profile_module ?fuel ?mem_limit ?max_depth ?deadline ?faults
        ?make_predictor ?static_prune ?observe_ranges ?hotspot ms;
  }

let analyze_module ?fuel ?mem_limit ?max_depth ?deadline ?faults ?make_predictor
    ?optimize ?static_prune ?observe_ranges ?hotspot (m : Ir.Func.modul) :
    analysis =
  Obs.Telemetry.with_span "analyze" @@ fun () ->
  let ms = prepare ?optimize m in
  {
    ms;
    profile =
      profile_module ?fuel ?mem_limit ?max_depth ?deadline ?faults
        ?make_predictor ?static_prune ?observe_ranges ?hotspot ms;
  }

let evaluate ?knobs (a : analysis) (config : Config.t) : Evaluate.report =
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> raise (Config.Bad_config msg));
  Evaluate.evaluate ?knobs a.profile config

(* Plain uninstrumented run (e.g. to check program output). *)
let run_source ?(fuel = Config.default_fuel) (src : string) : Interp.Machine.outcome =
  let m = Frontend.compile_exn src in
  Cfg.Loop_simplify.run_module m;
  Ir.Verifier.check_module_exn m;
  let machine = Interp.Machine.create ~fuel m in
  Interp.Machine.run_main machine
