(* The repro subsystem end to end: bundle codec round-trips, replay
   reproduces classified failures bit-for-bit, the shrinker reduces failing
   programs while preserving the failure class, and the campaign runner
   emits bundles that replay. *)

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* A deliberately padded (>= 30 lines) program whose third loop divides by
   a counter that reaches zero — a genuine div-by-zero trap, plenty of
   droppable structure around it for the shrinker. *)
let trap_src =
  {|fn helper(x: int) -> int {
  return x * 2 + 1;
}

fn scale(x: int, k: int) -> int {
  var r: int = x;
  r = r * k;
  return r + 1;
}

fn main() -> int {
  var acc: int = 0;
  var n: int = 40;
  var data: int[] = new int[n];
  for (var i: int = 0; i < n; i = i + 1) {
    data[i] = helper(i) + i * 3;
  }
  for (var i: int = 0; i < n; i = i + 1) {
    if (data[i] > 10) {
      acc = acc + data[i];
    } else {
      acc = acc + scale(data[i], 2);
    }
  }
  var d: int = 10;
  for (var i: int = 0; i < n; i = i + 1) {
    d = d - 1;
    acc = acc + acc / d;
  }
  print_int(acc);
  return 0;
}
|}

let healthy_src = {|fn main() -> int {
  print_int(42);
  return 0;
}
|}

let mk ?(fuel = 1_000_000) ?(configs = []) src =
  Repro.Bundle.make ~target:"test" ~stage:Loopa.Driver.Compile
    ~fingerprint:"unclassified" ~message:"" ~source:src ~fuel ~configs ()

let classify_exn b =
  match Repro.Pipeline.classify b with
  | Some b -> b
  | None -> Alcotest.fail "expected the pipeline to fail, but it succeeded"

(* ---- bundle codec ---- *)

let test_bundle_roundtrip () =
  let b =
    Repro.Bundle.make ~target:"181_mcf" ~stage:Loopa.Driver.Execute
      ~fingerprint:"trap:div_by_zero@5000" ~message:"injected division by zero"
      ~source:"fn main() -> int {\n  return 0;\n}\n"
      ~configs:[ Loopa.Config.best_pdoall; Loopa.Config.best_helix ]
      ~fuel:123_456 ~mem_limit:4096 ~max_depth:77 ~static_prune:false
      ~crosscheck:true ~check_invariants:true
      ~faults:[ (5000, Interp.Machine.Inject_div_by_zero); (9000, Interp.Machine.Inject_oob) ]
      ()
  in
  match Repro.Bundle.of_string (Repro.Bundle.to_string b) with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok b' ->
      Alcotest.(check bool) "bundle round-trips through JSON" true (b = b')

let test_bundle_rejects_garbage () =
  (match Repro.Bundle.of_string "not json at all" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Repro.Bundle.of_string "{\"version\": 1}" with
  | Ok _ -> Alcotest.fail "accepted a bundle with no target/stage/source"
  | Error _ -> ()

(* Registry target names (and the parrun "<target>_<fn>_bb<N>" names
   built from them) are file-safe already, so their bundle file names do
   not depend on how the sanitizer treats other bytes; save_in creates
   missing directories and maps everything else to '_'. *)
let test_bundle_save_in () =
  List.iter
    (fun (b : Suites.Suite.benchmark) ->
      let name = b.Suites.Suite.name in
      Alcotest.(check string) (name ^ " kept") name (Util.Fs.safe_name name);
      let loop = name ^ "_main_bb3" in
      Alcotest.(check string) (loop ^ " kept") loop (Util.Fs.safe_name loop))
    (Suites.Suite.all ());
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "loopa-save-in-%d/nested" (Unix.getpid ()))
  in
  let b =
    Repro.Bundle.make ~target:"t" ~stage:Loopa.Driver.Execute ~fingerprint:"crash"
      ~message:"m" ~source:"fn main() -> int { return 0; }" ()
  in
  let path = Repro.Bundle.save_in ~dir ~name:"examples/x.lp" b in
  Alcotest.(check string) "sanitized path"
    (Filename.concat dir "examples_x_lp.repro.json") path;
  (match Repro.Bundle.load path with
  | Ok b' -> Alcotest.(check bool) "round-trips" true (b = b')
  | Error m -> Alcotest.failf "unreadable: %s" m);
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir)

(* ---- fingerprints ---- *)

let test_fingerprints () =
  Alcotest.(check string)
    "class strips the qualifier" "trap:div_by_zero"
    (Loopa.Driver.fingerprint_class "trap:div_by_zero@123");
  Alcotest.(check string)
    "class of qualifier-free fingerprint" "budget:fuel"
    (Loopa.Driver.fingerprint_class "budget:fuel");
  Alcotest.(check bool)
    "strict match wants identical clocks" false
    (Loopa.Driver.same_fingerprint "trap:div_by_zero@1" "trap:div_by_zero@2");
  Alcotest.(check bool)
    "loose match compares classes" true
    (Loopa.Driver.same_fingerprint ~strict:false "trap:div_by_zero@1"
       "trap:div_by_zero@2");
  Alcotest.(check bool)
    "loose match still separates classes" false
    (Loopa.Driver.same_fingerprint ~strict:false "trap:div_by_zero@1"
       "trap:out_of_bounds@1")

(* ---- classification ---- *)

let test_classify_trap () =
  let b = classify_exn (mk trap_src) in
  Alcotest.(check string)
    "trap class" "trap:div_by_zero"
    (Loopa.Driver.fingerprint_class b.Repro.Bundle.fingerprint);
  Alcotest.(check string)
    "stage" "execute"
    (Loopa.Driver.stage_name b.Repro.Bundle.stage)

let test_classify_compile_error () =
  let b = classify_exn (mk "fn main() -> int {\n  var a: int = ;\n  return 0;\n}\n") in
  Alcotest.(check string)
    "compile class carries the position" "compile:syntax@2:16"
    b.Repro.Bundle.fingerprint

let test_classify_healthy () =
  match Repro.Pipeline.classify (mk healthy_src) with
  | None -> ()
  | Some b -> Alcotest.failf "healthy program classified as %s" b.Repro.Bundle.fingerprint

(* ---- replay ---- *)

let test_replay_reproduces () =
  let b = classify_exn (mk trap_src) in
  match Repro.Pipeline.replay b with
  | Repro.Pipeline.Reproduced -> ()
  | v -> Alcotest.failf "expected reproduced, got %s" (Repro.Pipeline.verdict_to_string v)

let test_replay_vanished () =
  let b = { (mk healthy_src) with Repro.Bundle.fingerprint = "trap:div_by_zero@100" } in
  match Repro.Pipeline.replay b with
  | Repro.Pipeline.Vanished -> ()
  | v -> Alcotest.failf "expected vanished, got %s" (Repro.Pipeline.verdict_to_string v)

let test_replay_changed () =
  let b = classify_exn (mk trap_src) in
  (* tamper with the clock: strict replay must notice *)
  let b = { b with Repro.Bundle.fingerprint = "trap:div_by_zero@1" } in
  match Repro.Pipeline.replay b with
  | Repro.Pipeline.Changed f ->
      Alcotest.(check string)
        "the new failure keeps the class" "trap:div_by_zero"
        (Loopa.Driver.fingerprint_class f.Loopa.Driver.fingerprint)
  | v -> Alcotest.failf "expected changed, got %s" (Repro.Pipeline.verdict_to_string v)

(* ---- shrinking ---- *)

let test_shrink_trap () =
  let b = classify_exn (mk trap_src) in
  let n0 = count_lines b.Repro.Bundle.source in
  Alcotest.(check bool) "the seed program is >= 30 lines" true (n0 >= 30);
  match Repro.Shrink.shrink b with
  | Error m -> Alcotest.failf "shrink failed: %s" m
  | Ok (sb, stats) ->
      let n1 = count_lines sb.Repro.Bundle.source in
      Alcotest.(check bool)
        (Printf.sprintf "strictly smaller (%d -> %d lines)" n0 n1)
        true (n1 < n0);
      Alcotest.(check bool) "accepted at least one reduction" true (stats.Repro.Shrink.accepted > 0);
      Alcotest.(check string)
        "failure class preserved" "trap:div_by_zero"
        (Loopa.Driver.fingerprint_class sb.Repro.Bundle.fingerprint);
      (* the minimized bundle's refreshed fingerprint replays strictly *)
      (match Repro.Pipeline.replay sb with
      | Repro.Pipeline.Reproduced -> ()
      | v ->
          Alcotest.failf "minimized bundle does not replay: %s"
            (Repro.Pipeline.verdict_to_string v))

let test_shrink_compile_error_falls_back_to_lines () =
  (* unbalanced brace up front: the source does not parse, so the AST path
     is unavailable and the shrinker must reduce line-by-line *)
  let src = "}\n" ^ trap_src in
  let b = classify_exn (mk src) in
  Alcotest.(check string)
    "classified as a syntax error" "compile:syntax"
    (Loopa.Driver.fingerprint_class b.Repro.Bundle.fingerprint);
  match Repro.Shrink.shrink b with
  | Error m -> Alcotest.failf "shrink failed: %s" m
  | Ok (sb, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "reduced %d -> %d lines" (count_lines src)
           (count_lines sb.Repro.Bundle.source))
        true
        (count_lines sb.Repro.Bundle.source < count_lines src);
      Alcotest.(check string)
        "still a syntax error" "compile:syntax"
        (Loopa.Driver.fingerprint_class sb.Repro.Bundle.fingerprint)

let test_shrink_rejects_healthy () =
  match Repro.Shrink.shrink (mk healthy_src) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shrinking a healthy bundle should refuse"

(* ---- campaign integration ---- *)

let test_campaign_emits_replayable_bundle () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "loopa-repro-test" in
  let budgets =
    { Campaign.Runner.default_budgets with Campaign.Runner.fuel = 1_000_000 }
  in
  let configs = [ Loopa.Config.best_pdoall ] in
  let summary =
    Campaign.Runner.run ~budgets ~configs
      ~faults_of:(fun t ->
        if t = "faulty" then [ (500, Interp.Machine.Inject_div_by_zero) ] else [])
      ~repro_dir:dir
      [ ("healthy", healthy_src); ("faulty", trap_src) ]
  in
  Alcotest.(check int) "one task errored" 1 summary.Campaign.Runner.n_errored;
  let path = Filename.concat dir "faulty.repro.json" in
  Alcotest.(check bool) "bundle file exists" true (Sys.file_exists path);
  Alcotest.(check bool)
    "healthy task emitted no bundle" false
    (Sys.file_exists (Filename.concat dir "healthy.repro.json"));
  match Repro.Bundle.load path with
  | Error m -> Alcotest.failf "bundle unreadable: %s" m
  | Ok b ->
      Alcotest.(check string)
        "bundle records the injected trap at its clock" "trap:div_by_zero@500"
        b.Repro.Bundle.fingerprint;
      Alcotest.(check bool)
        "bundle records the fault plan" true
        (b.Repro.Bundle.faults = [ (500, Interp.Machine.Inject_div_by_zero) ]);
      (match Repro.Pipeline.replay b with
      | Repro.Pipeline.Reproduced -> ()
      | v ->
          Alcotest.failf "campaign bundle does not replay: %s"
            (Repro.Pipeline.verdict_to_string v));
      Sys.remove path;
      Sys.rmdir dir

(* ---- fuzz-style bundles ---- *)

let test_fuzz_bundle_pipeline () =
  (* a healthy program under the fuzz invariants must pass them all *)
  let b =
    Repro.Bundle.make ~target:"fuzz-style" ~stage:Loopa.Driver.Fuzz
      ~fingerprint:"fuzz:unclassified" ~message:"" ~source:healthy_src
      ~configs:[ Loopa.Config.best_pdoall; Loopa.Config.best_helix ]
      ~fuel:1_000_000 ~static_prune:false ~crosscheck:true
      ~check_invariants:true ()
  in
  match Repro.Pipeline.run b with
  | Ok () -> ()
  | Error f ->
      Alcotest.failf "fuzz invariants rejected a healthy program: %s"
        (Loopa.Driver.failure_to_string f)

let () =
  Alcotest.run "repro"
    [
      ( "bundle",
        [
          Alcotest.test_case "json round-trip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_bundle_rejects_garbage;
          Alcotest.test_case "save_in names" `Quick test_bundle_save_in;
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "class and matching" `Quick test_fingerprints ] );
      ( "classify",
        [
          Alcotest.test_case "trap" `Quick test_classify_trap;
          Alcotest.test_case "compile error" `Quick test_classify_compile_error;
          Alcotest.test_case "healthy" `Quick test_classify_healthy;
        ] );
      ( "replay",
        [
          Alcotest.test_case "reproduces" `Quick test_replay_reproduces;
          Alcotest.test_case "vanished" `Quick test_replay_vanished;
          Alcotest.test_case "changed" `Quick test_replay_changed;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "trap program" `Slow test_shrink_trap;
          Alcotest.test_case "compile error via lines" `Slow
            test_shrink_compile_error_falls_back_to_lines;
          Alcotest.test_case "refuses healthy bundles" `Quick test_shrink_rejects_healthy;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "emits a replayable bundle" `Quick
            test_campaign_emits_replayable_bundle;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "invariant pipeline" `Quick test_fuzz_bundle_pipeline ] );
    ]
