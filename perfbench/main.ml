(* The limit-study benchmark program. One process runs one workload: an
   untimed warm-up pass, then timed passes until the time is up. Layers are
   timed from outside, by wrapping calls to each layer's public entry point;
   Obs.Telemetry stays off throughout. [run.py] builds this program, runs it,
   and prints the result line.

   main.exe run --workload W --seed N --seconds S --trace 0|1 --nproc P --ref FILE
   main.exe record --ref FILE --nproc P

   [run] prints "ready <time>" once the warm-up pass is done, then one JSON
   object: operation counts, report lines, and either the per-layer metrics
   (traced) or the raw timing samples and calibration kernel times.
   [record] rewrites the reference digests. *)

open Printf
module Driver = Loopa.Driver
module Machine = Interp.Machine
module Runner = Campaign.Runner
module Suite = Suites.Suite
module Json = Util.Json

let now = Unix.gettimeofday

let budgets = Runner.default_budgets

let configs = Loopa.Config.figure_ladder

let workloads = [ "campaign-fp"; "static-lint" ]

let is_campaign w = w = "campaign-fp"

(* ---- inputs: the fixed suite registry, in registry order or permuted by
   a seed ---- *)

let categories = function
  | "campaign-fp" -> [ Suite.Fp2000; Suite.Fp2006; Suite.Eembc ]
  | _ -> Suite.categories

let targets ?seed workload =
  let a =
    List.concat_map Suite.by_category (categories workload)
    |> List.map (fun (b : Suite.benchmark) -> (b.Suite.name, b.Suite.source))
    |> Array.of_list
  in
  Option.iter
    (fun seed ->
      let st = Random.State.make seed in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done)
    seed;
  Array.to_list a

(* ---- correctness: digests recorded at a reference commit ----

   Reference lines are [kind<TAB>key<TAB>value]. Kinds: [run] (hook-free
   execution), [exec] (profiled execution), [scores] (every configuration's
   speedup and coverage bits), [static] (verdict counts and lint
   fingerprints), [count] (exact per-pass counts, keyed workload/name). *)

let reference : (string * string, string) Hashtbl.t = Hashtbl.create 512

let recording = ref false

let load_reference file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ kind; key; v ] -> Hashtbl.replace reference (kind, key) v
         | _ -> ())

let save_reference file =
  Hashtbl.fold (fun (k, key) v acc -> sprintf "%s\t%s\t%s" k key v :: acc) reference []
  |> List.sort compare
  |> fun lines ->
  Out_channel.with_open_text file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* [true] when [v] matches the reference (or is newly recorded). *)
let check kind key v =
  match Hashtbl.find_opt reference (kind, key) with
  | Some r when r = v -> true
  | Some r ->
      eprintf "MISMATCH %s %s\n  expected %s\n  got      %s\n%!" kind key r v;
      false
  | None when !recording ->
      Hashtbl.replace reference (kind, key) v;
      true
  | None ->
      eprintf "MISSING reference %s %s\n%!" kind key;
      false

let exec_digest (o : Machine.outcome) =
  sprintf "clock=%d out=%s mem_events=%d stop=%s" o.Machine.clock
    (Digest.to_hex (Digest.string o.Machine.output))
    o.Machine.mem_events
    (Machine.stop_reason_to_string o.Machine.stop)

let hex f = sprintf "%Lx" (Int64.bits_of_float f)

let scores_digest ~clock ~truncated scores =
  String.concat " "
    (sprintf "clock=%d truncated=%b" clock truncated
    :: List.map
         (fun (c, speedup, coverage) ->
           sprintf "%s=%s/%s"
             (String.map (function ' ' -> '_' | ch -> ch) (Loopa.Config.name c))
             (hex speedup) (hex coverage))
         scores)

let result_digest (r : Runner.result) =
  let of_scores truncated scores =
    scores_digest ~clock:r.Runner.clock ~truncated
      (List.map
         (fun (s : Runner.score) -> (s.Runner.config, s.Runner.speedup, s.Runner.coverage_pct))
         scores)
  in
  match r.Runner.status with
  | Runner.Completed s -> of_scores false s
  | Runner.Truncated (_, s) -> of_scores true s
  | Runner.Errored e -> "error " ^ Runner.error_to_string e

let verdicts (ms : Loopa.Classify.module_static) =
  Hashtbl.fold
    (fun _ (fs : Loopa.Classify.func_static) acc ->
      Array.fold_left
        (fun (l, d, c, u) (ls : Loopa.Classify.loop_static) ->
          match ls.Loopa.Classify.dep.Deptest.Analysis.verdict with
          | Deptest.Analysis.Proven_doall -> (l + 1, d + 1, c, u)
          | Deptest.Analysis.Proven_lcd _ -> (l + 1, d, c + 1, u)
          | Deptest.Analysis.Unknown -> (l + 1, d, c, u + 1))
        acc fs.Loopa.Classify.loops)
    ms.Loopa.Classify.funcs (0, 0, 0, 0)

let static_digest ms (diags : Loopa.Lint.diag list) =
  let loops, doall, lcd, unknown = verdicts ms in
  sprintf "loops=%d doall=%d lcd=%d unknown=%d diags=%d lint=%s" loops doall lcd unknown
    (List.length diags)
    (String.concat ","
       (List.sort_uniq compare (List.map (fun (d : Loopa.Lint.diag) -> d.Loopa.Lint.fingerprint) diags)))

(* ---- one pass ---- *)

(* What a pass measured: operations attempted and failed, per-target wall
   times, per-layer seconds and exact counts. *)
type pass = {
  mutable attempted : int;
  mutable failed : int;
  mutable task_s : (string * float) list;  (* target, wall seconds *)
  layer_s : (string, float) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable wall_s : float;
}

let new_pass () =
  {
    attempted = 0;
    failed = 0;
    task_s = [];
    layer_s = Hashtbl.create 8;
    counts = Hashtbl.create 16;
    wall_s = 0.0;
  }

let add_count p name n =
  Hashtbl.replace p.counts name (n + Option.value ~default:0 (Hashtbl.find_opt p.counts name))

let add_s p name s =
  Hashtbl.replace p.layer_s name (s +. Option.value ~default:0.0 (Hashtbl.find_opt p.layer_s name))

let get_s p name = Option.value ~default:0.0 (Hashtbl.find_opt p.layer_s name)

let get_count p name = Option.value ~default:0 (Hashtbl.find_opt p.counts name)

(* Time one call into [layer]. *)
let timed p layer f =
  let t0 = now () in
  let r = f () in
  add_s p layer (now () -. t0);
  r

(* One operation: it fails if it raises or any of its checks fails. *)
let op p name f =
  p.attempted <- p.attempted + 1;
  match f () with
  | true -> ()
  | false -> p.failed <- p.failed + 1
  | exception e ->
      eprintf "FAILED %s: %s\n%!" name (Printexc.to_string e);
      p.failed <- p.failed + 1

let ir_instrs (m : Ir.Func.modul) =
  List.fold_left (fun acc fn -> Ir.Func.fold_instrs (fun n _ -> n + 1) acc fn) 0 m.Ir.Func.funcs

let executor ~jobs = if jobs > 1 then Runner.Forked jobs else Runner.Serial

let run_campaign p ~jobs tgts =
  let s = Runner.run ~executor:(executor ~jobs) tgts in
  List.iter
    (fun (r : Runner.result) ->
      p.task_s <- (r.Runner.target, r.Runner.wall_s) :: p.task_s;
      add_count p "campaign.attempts" r.Runner.attempts;
      add_count p "guest.instructions" r.Runner.clock;
      op p r.Runner.target (fun () -> check "scores" r.Runner.target (result_digest r)))
    s.Runner.results;
  s.Runner.results

(* How a pass calls into a layer: directly, or timed. *)
type call = { call : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { call = (fun _ f -> f ()) }

(* The lint-plus-classify work of [static-lint] on one program. *)
let lint_and_prepare { call } src =
  let m = call "frontend" (fun () -> Frontend.compile_exn src) in
  let diags = call "lint" (fun () -> Loopa.Lint.run m) in
  let m' = call "frontend" (fun () -> Frontend.compile_exn src) in
  let ms = call "static" (fun () -> Driver.prepare m') in
  (m, diags, ms)

(* An untimed-layer pass: what the end-to-end metrics measure. *)
let plain_pass ~workload ~jobs tgts =
  let p = new_pass () in
  let t0 = now () in
  let per_target f =
    List.iter
      (fun (name, src) ->
        let t = now () in
        op p name (fun () -> f name src);
        p.task_s <- (name, now () -. t) :: p.task_s)
      tgts
  in
  (match workload with
  | "static-lint" ->
      per_target (fun name src ->
          let _, diags, ms = lint_and_prepare untimed src in
          let loops, _, _, _ = verdicts ms in
          add_count p "static.loops" loops;
          add_count p "lint.diagnostics" (List.length diags);
          check "static" name (static_digest ms diags))
  | _ -> ignore (run_campaign p ~jobs tgts));
  p.wall_s <- now () -. t0;
  p

(* A traced pass: the same inputs, with every layer's entry point called
   and timed separately. *)
let traced_pass ~workload ~jobs tgts =
  let p = new_pass () in
  let time layer f = timed p layer f in
  let compile src =
    let m = time "frontend" (fun () -> Frontend.compile_exn src) in
    add_count p "frontend.programs" 1;
    add_count p "frontend.ir_instrs" (ir_instrs m);
    m
  in
  let count_static ms =
    let loops, doall, _, unknown = verdicts ms in
    add_count p "static.loops" loops;
    add_count p "static.proven_doall" doall;
    add_count p "static.unknown" unknown
  in
  let hook_free m =
    let o =
      time "interp" (fun () ->
          Machine.run_main
            (Machine.create ~fuel:budgets.Runner.fuel ~mem_limit:budgets.Runner.mem_limit
               ~max_depth:budgets.Runner.max_depth m))
    in
    add_count p "interp.instructions" o.Machine.clock;
    add_count p "interp.mem_accesses" o.Machine.mem_accesses;
    o
  in
  let t0 = now () in
  List.iter
    (fun (name, src) ->
      op p name (fun () ->
          match workload with
          | "static-lint" ->
              let m, diags, ms =
                lint_and_prepare
                  {
                    call =
                      (fun layer f ->
                        if layer = "frontend" then add_count p "frontend.programs" 1;
                        time layer f);
                  }
                  src
              in
              add_count p "frontend.ir_instrs" (ir_instrs m);
              add_count p "lint.diagnostics" (List.length diags);
              count_static ms;
              check "static" name (static_digest ms diags)
          | _ ->
              let ms = time "static" (fun () -> Driver.prepare (compile src)) in
              count_static ms;
              let plain = hook_free ms.Loopa.Classify.modul in
              let profile =
                time "runtime" (fun () ->
                    Driver.profile_module ~fuel:budgets.Runner.fuel
                      ~mem_limit:budgets.Runner.mem_limit ~max_depth:budgets.Runner.max_depth ms)
              in
              let o = profile.Loopa.Profile.outcome in
              add_count p "runtime.instructions" o.Machine.clock;
              add_count p "runtime.mem_events" o.Machine.mem_events;
              add_count p "runtime.mem_pruned" (o.Machine.mem_accesses - o.Machine.mem_events);
              add_count p "runtime.loop_invocations" (Array.length profile.Loopa.Profile.invs);
              let a = { Driver.ms; profile } in
              let scores =
                List.map
                  (fun c ->
                    let r = time "evaluate" (fun () -> Driver.evaluate a c) in
                    (c, r.Loopa.Evaluate.speedup, r.Loopa.Evaluate.coverage_pct))
                  configs
              in
              add_count p "evaluate.reports" (List.length scores);
              (* the two execution paths must agree on clock and output *)
              let same_path =
                plain.Machine.clock = o.Machine.clock && plain.Machine.output = o.Machine.output
              in
              if not same_path then eprintf "MISMATCH %s: hook-free and profiled runs differ\n%!" name;
              let ok_run = check "run" name (exec_digest plain) in
              let ok_exec = check "exec" name (exec_digest o) in
              let ok_scores =
                check "scores" name
                  (scores_digest ~clock:o.Machine.clock ~truncated:profile.Loopa.Profile.truncated
                     scores)
              in
              same_path && ok_run && ok_exec && ok_scores))
    tgts;
  if is_campaign workload then begin
    (* the orchestration layer, over the same targets *)
    let results = time "campaign" (fun () -> run_campaign p ~jobs tgts) in
    List.iter (fun (r : Runner.result) -> add_s p "campaign.task_wall" r.Runner.wall_s) results
  end;
  p.wall_s <- now () -. t0;
  p

(* ---- metrics ---- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-layer metrics of one traced pass: (name, value, unit). *)
let layer_metrics ~nproc ~jobs p =
  let s = get_s p and c n = float_of_int (get_count p n) in
  let runtime_self = if s "runtime" > 0.0 then s "runtime" -. s "interp" else 0.0 in
  (* the campaign's own cost: its tasks' wall time minus the layer time the
     same targets took when called directly *)
  let overhead =
    if s "campaign" > 0.0 then
      s "campaign.task_wall" -. s "frontend" -. s "static" -. s "runtime" -. s "evaluate"
    else 0.0
  in
  [
    ("frontend.s", s "frontend", "s");
    ("frontend.programs_per_s", ratio (c "frontend.programs") (s "frontend"), "1/s");
    ("static.s", s "static", "s");
    ("static.loops_per_s", ratio (c "static.loops") (s "static"), "1/s");
    ("lint.s", s "lint", "s");
    ("interp.s", s "interp", "s");
    ("interp.instr_per_s", ratio (c "interp.instructions") (s "interp"), "1/s");
    ("runtime.s", s "runtime", "s");
    ("runtime.self_s", runtime_self, "s");
    ("runtime.instr_per_s", ratio (c "runtime.instructions") (s "runtime"), "1/s");
    ("runtime.ns_per_mem_event", 1e9 *. ratio runtime_self (c "runtime.mem_events"), "ns");
    ("evaluate.s", s "evaluate", "s");
    ("evaluate.configs_per_s", ratio (c "evaluate.reports") (s "evaluate"), "1/s");
    ("campaign.s", s "campaign", "s");
    ("campaign.overhead_s", overhead, "s");
    ("campaign.parallel_efficiency", ratio (s "campaign.task_wall") (float_of_int jobs *. s "campaign"), "ratio");
  ]
  @ List.map
      (fun n -> (n, c n, "count"))
      [
        "frontend.ir_instrs"; "static.loops"; "static.proven_doall"; "static.unknown";
        "lint.diagnostics"; "interp.instructions"; "interp.mem_accesses"; "runtime.mem_events";
        "runtime.mem_pruned"; "runtime.loop_invocations"; "evaluate.reports"; "campaign.attempts";
      ]
  @ [ ("host.nproc", float_of_int nproc, "count"); ("campaign.jobs", float_of_int jobs, "count") ]

(* Compare a pass's exact counts with the reference. A changed count is
   flagged, not failed: a change may move a count on purpose, and must then
   say why. *)
let check_counts workload p =
  Hashtbl.fold
    (fun name n acc ->
      let key = workload ^ "/" ^ name in
      match Hashtbl.find_opt reference ("count", key) with
      | Some r when r = string_of_int n -> acc
      | Some r -> sprintf "COUNT CHANGED %s: reference %s, now %d" key r n :: acc
      | None when !recording ->
          Hashtbl.replace reference ("count", key) (string_of_int n);
          acc
      | None -> sprintf "COUNT UNRECORDED %s = %d" key n :: acc)
    p.counts []
  |> List.sort_uniq compare

(* ---- calibration ----

   The host's speed changes by up to 40% for a minute or two at a time, the
   same for any code on it (other tenants share the processor cores). A
   fixed kernel of the benchmark's own, in the style of the program (hash
   tables, small allocations, branches), is timed between the timed passes;
   run.py scales the pass times by its speed, which cancels most of that
   change. *)

let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 300_000 do
    let k = (i * 7919) land 4095 in
    (match Hashtbl.find_opt h k with
    | Some v ->
        Hashtbl.replace h k (v + i);
        acc := !acc + v
    | None -> Hashtbl.add h k i);
    if i land 7 = 0 then acc := !acc + List.length (List.init 8 (fun j -> j + i))
  done;
  !acc

(* Time the kernel for about [budget] seconds, at least once. *)
let calibrate ~budget samples =
  let t_end = now () +. budget in
  let rec go samples =
    let t = now () in
    ignore (Sys.opaque_identity (kernel ()));
    let samples = (now () -. t) :: samples in
    if now () < t_end then go samples else samples
  in
  go samples

(* ---- entry points ---- *)

let jobs_for ~nproc workload = if workload = "campaign-fp" then min 2 nproc else 1

(* Per-layer metrics: each one's median over the traced passes, and the
   layer split as shares of the traced layer time. The runtime layer's
   time already contains an interpretation, so the hook-free [interp] run
   is only counted where there is no runtime layer. *)
let traced_metrics ~nproc ~jobs passes =
  let per_pass = List.map (layer_metrics ~nproc ~jobs) passes in
  let metrics =
    List.mapi
      (fun i (name, _, unit) ->
        (name, median (List.map (fun l -> let _, v, _ = List.nth l i in v) per_pass), unit))
      (List.hd per_pass)
  in
  let s n = List.find_map (fun (n', v, _) -> if n = n' then Some v else None) metrics |> Option.get in
  let total =
    s "frontend.s" +. s "static.s" +. s "lint.s" +. Float.max (s "runtime.s") (s "interp.s") +. s "evaluate.s"
  in
  let share n = 100.0 *. ratio (s n) total in
  ( metrics,
    [
      sprintf
        "layer split, %% of %.3f s traced: frontend %.1f, static %.1f, lint %.1f, interp %.1f, \
         runtime.self %.1f, evaluate %.1f"
        total (share "frontend.s") (share "static.s") (share "lint.s") (share "interp.s")
        (share "runtime.self_s") (share "evaluate.s");
    ] )

let run ~workload ~seed ~seconds ~trace ~nproc =
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  (* isolation: nothing inside the program records telemetry *)
  if Obs.Telemetry.enabled () then failwith "Obs.Telemetry is enabled";
  let jobs = jobs_for ~nproc workload in
  (* host guard: never more forked workers than processors *)
  if jobs > nproc then failwith (sprintf "refusing Forked %d on %d processors" jobs nproc);
  (* Set-up runs the registry in its fixed order, as the CLI does. Peak
     memory depends on the order (a large profile on top of an earlier
     target's garbage), so it is read here. *)
  let warm = plain_pass ~workload ~jobs (targets workload) in
  printf "ready %.6f\n%!" (now ());
  let rss = peak_rss_mb () in
  (* Timed pass [i] runs its own permutation of the seed, so the passes span
     several orders rather than repeating one order's garbage-collection
     timing; it starts with no garbage left from the pass before. *)
  let pass i =
    let tgts = targets ~seed:[| seed; i |] workload in
    Gc.compact ();
    if trace then traced_pass ~workload ~jobs tgts else plain_pass ~workload ~jobs tgts
  in
  let deadline = now () +. seconds in
  (* an eighth of the untraced time goes to the kernel, after each pass *)
  let kernel_s = ref [] in
  let rec loop acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else begin
      let p = pass (List.length acc) in
      if not trace then kernel_s := calibrate ~budget:(p.wall_s /. 8.0) !kernel_s;
      loop (p :: acc)
    end
  in
  let passes = loop [] in
  let all = warm :: passes in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 all in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
  let report =
    sprintf "workload %s seed %d: %d timed passes, nproc %d, jobs %d" workload seed (List.length passes)
      nproc jobs
    :: List.sort_uniq compare (List.concat_map (check_counts workload) all)
  in
  let num f = Json.Float f in
  (* untraced runs hand their samples to run.py, which pools several
     processes; traced runs report per-layer medians *)
  let results =
    if trace then
      let metrics, split = traced_metrics ~nproc ~jobs passes in
      [
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Json.Obj [ ("value", num v); ("unit", Json.String u) ]))
               metrics) );
        ("report", Json.List (List.map (fun l -> Json.String l) (report @ split)));
      ]
    else
      [
        ("rss_mb", num rss);
        ("kernel_s", Json.List (List.map num !kernel_s));
        ("pass_s", Json.List (List.map (fun p -> num p.wall_s) passes));
        ( "task_s",
          Json.List
            (List.concat_map
               (fun p -> List.map (fun (t, s) -> Json.List [ Json.String t; num s ]) p.task_s)
               passes) );
        ("instructions", Json.Int (get_count warm "guest.instructions"));
        ("loops", Json.Int (get_count warm "static.loops"));
        ("report", Json.List (List.map (fun l -> Json.String l) report));
      ]
  in
  print_endline
    (Json.to_string (Json.Obj ([ ("attempted", Json.Int attempted); ("failed", Json.Int failed) ] @ results)))

(* Rewrite the reference from one traced and one plain pass per workload.
   Refuses to write if any check fails (e.g. the two execution paths or the
   two scoring paths disagree). *)
let record ~file ~nproc =
  recording := true;
  let failed =
    List.fold_left
      (fun acc workload ->
        let jobs = jobs_for ~nproc workload in
        let tgts = targets workload in
        let t = traced_pass ~workload ~jobs tgts and p = plain_pass ~workload ~jobs tgts in
        ignore (check_counts workload t @ check_counts workload p);
        acc + t.failed + p.failed)
      0 workloads
  in
  if failed > 0 then (eprintf "%d checks failed; reference not written\n" failed; exit 1);
  save_reference file

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref 1 and ref_file = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input-order seed");
      ("--seconds", Arg.Set_float seconds, "timed seconds");
      ("--trace", Arg.Set_int trace, "1 for the per-layer run");
      ("--nproc", Arg.Set_int nproc, "processors available");
      ("--ref", Arg.Set_string ref_file, "reference digest file");
    ]
  in
  let mode = ref "" in
  Arg.parse spec (fun m -> mode := m) "main.exe (run|record) [options]";
  match !mode with
  | "run" ->
      load_reference !ref_file;
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~nproc:!nproc
  | "record" -> record ~file:!ref_file ~nproc:!nproc
  | m -> failwith ("unknown mode " ^ m)
