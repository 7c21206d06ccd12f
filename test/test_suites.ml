(* Suite-level integration tests: every benchmark compiles to verified SSA,
   passes the dominance check, runs to completion, reproduces its golden
   checksum, and contains loops the analysis can see. *)

(* Golden outputs, locked from a reference run; any front-end, interpreter or
   benchmark change that alters semantics trips these. *)
let golden =
  [
    ("164_gzip", "24500064");
    ("175_vpr", "-73600");
    ("176_gcc", "-532");
    ("181_mcf", "9624");
    ("186_crafty", "857872");
    ("197_parser", "9999604");
    ("252_eon", "716900");
    ("253_perlbmk", "1035347");
    ("254_gap", "3000498500");
    ("255_vortex", "191021428");
    ("256_bzip2", "26611");
    ("300_twolf", "83408");
    ("400_perlbench", "457210");
    ("401_bzip2", "1088");
    ("403_gcc", "60538");
    ("429_mcf", "210100");
    ("445_gobmk", "809");
    ("456_hmmer", "620");
    ("458_sjeng", "2560000");
    ("462_libquantum", "142033917");
    ("464_h264ref", "168533");
    ("471_omnetpp", "160000990");
    ("473_astar", "1000198");
    ("483_xalancbmk", "37621");
    ("168_wupwise", "0.000332418");
    ("171_swim", "184127");
    ("172_mgrid", "2.37856");
    ("173_applu", "305.945");
    ("177_mesa", "-1448.21");
    ("178_galgel", "5212.29");
    ("179_art", "641.487");
    ("183_equake", "263.43");
    ("188_ammp", "1194.51");
    ("189_lucas", "146822");
    ("410_bwaves", "726.19");
    ("433_milc", "-41.2865");
    ("434_zeusmp", "5596.4");
    ("435_gromacs", "1770.3");
    ("437_leslie3d", "4686.15");
    ("444_namd", "9508.09");
    ("447_dealII", "1500");
    ("450_soplex", "22.1124");
    ("453_povray", "487.014");
    ("470_lbm", "1527.15");
    ("482_sphinx", "-2.46502");
    ("a2time01", "54426.8");
    ("aifftr01", "87552");
    ("aifirf01", "179.482");
    ("basefp01", "686.512");
    ("bitmnp01", "16452");
    ("idctrn01", "-514.156");
    ("matrix01", "30680.9");
    ("pntrch01", "21504");
    ("puwmod01", "48.2025");
    ("rspeed01", "140.353");
    ("tblook01", "317052");
    ("ttsprk01", "438184");
    ("viterb00", "81");
  ]

let test_registry () =
  let benches = Suites.Suite.all () in
  Alcotest.(check int) "benchmark count" (List.length golden) (List.length benches);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (name ^ " registered") true
        (Suites.Suite.find name <> None))
    golden;
  let names = Suites.Suite.names () in
  Alcotest.(check int)
    "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_categories () =
  let count cat = List.length (Suites.Suite.by_category cat) in
  Alcotest.(check int) "int2000 size" 12 (count Suites.Suite.Int2000);
  Alcotest.(check int) "int2006 size" 12 (count Suites.Suite.Int2006);
  Alcotest.(check int) "fp2000 size" 10 (count Suites.Suite.Fp2000);
  Alcotest.(check int) "fp2006 size" 11 (count Suites.Suite.Fp2006);
  Alcotest.(check int) "eembc size" 13 (count Suites.Suite.Eembc);
  Alcotest.(check bool) "eembc numeric" true (Suites.Suite.is_numeric Suites.Suite.Eembc);
  Alcotest.(check bool)
    "int2000 non-numeric" false
    (Suites.Suite.is_numeric Suites.Suite.Int2000)

let compile_bench name =
  match Suites.Suite.find name with
  | None -> Alcotest.failf "%s not found" name
  | Some b -> Frontend.compile_exn b.Suites.Suite.source

let run_case (name, want) =
  Alcotest.test_case name `Quick (fun () ->
      let b = Option.get (Suites.Suite.find name) in
      (* verified SSA *)
      let m = compile_bench name in
      Alcotest.(check (list string))
        "ssa clean" []
        (List.map Cfg.Ssa_check.error_to_string (Cfg.Ssa_check.check_module m));
      (* canonicalization leaves every loop in loop-simplify form *)
      Cfg.Loop_simplify.run_module m;
      List.iter
        (fun fn ->
          let cfg = Cfg.Graph.build fn in
          let dom = Cfg.Dom.compute cfg in
          let li = Cfg.Loopinfo.compute cfg dom in
          List.iter
            (fun (l : Cfg.Loopinfo.loop) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s loop bb%d canonical" name fn.Ir.Func.fname
                   l.Cfg.Loopinfo.header)
                true
                (Cfg.Loopinfo.is_canonical li l.Cfg.Loopinfo.lid))
            (Cfg.Loopinfo.loops li))
        m.Ir.Func.funcs;
      (* golden output *)
      let out = Loopa.Driver.run_source ~fuel:100_000_000 b.Suites.Suite.source in
      Alcotest.(check string) "checksum" want (String.trim out.Interp.Machine.output);
      Alcotest.(check bool) "nonzero cost" true (out.Interp.Machine.clock > 1000))

let test_every_benchmark_has_loops () =
  List.iter
    (fun (b : Suites.Suite.benchmark) ->
      let m = Frontend.compile_exn b.Suites.Suite.source in
      let total_loops =
        List.fold_left
          (fun acc fn ->
            let cfg = Cfg.Graph.build fn in
            let dom = Cfg.Dom.compute cfg in
            let li = Cfg.Loopinfo.compute cfg dom in
            acc + Cfg.Loopinfo.num_loops li)
          0 m.Ir.Func.funcs
      in
      Alcotest.(check bool)
        (b.Suites.Suite.name ^ " has loops")
        true (total_loops >= 1))
    (Suites.Suite.all ())

(* A full instrumented analysis on one representative per class. *)
let test_analysis_smoke () =
  List.iter
    (fun name ->
      let b = Option.get (Suites.Suite.find name) in
      let a = Loopa.Driver.analyze_source ~fuel:100_000_000 b.Suites.Suite.source in
      let r = Loopa.Driver.evaluate a Loopa.Config.best_helix in
      Alcotest.(check bool) (name ^ " speedup >= 1") true (r.Loopa.Evaluate.speedup >= 1.0);
      Alcotest.(check bool)
        (name ^ " coverage in range") true
        (r.Loopa.Evaluate.coverage_pct >= 0.0 && r.Loopa.Evaluate.coverage_pct <= 100.0))
    [ "181_mcf"; "179_art"; "pntrch01" ]

(* The profiler's shadow-vector RAW detection against the naive
   per-invocation reference (Mem_oracle), on every registry program, with
   static pruning on and off. The fuel cuts about half of the programs
   short, so truncated profiles are covered too. *)
let test_mem_raw_oracle () =
  let truncated = ref 0 and conflicted = ref 0 in
  List.iter
    (fun (b : Suites.Suite.benchmark) ->
      List.iter
        (fun static_prune ->
          let ms = Loopa.Driver.prepare (Frontend.compile_exn b.Suites.Suite.source) in
          let p, n =
            Mem_oracle.check ~what:b.Suites.Suite.name ~fuel:300_000 ~static_prune ms
          in
          if p.Loopa.Profile.truncated then incr truncated;
          conflicted := !conflicted + n)
        [ true; false ])
    (Suites.Suite.all ());
  let runs = 2 * List.length (Suites.Suite.all ()) in
  Alcotest.(check bool)
    (Printf.sprintf "some but not all of %d runs truncate (%d did)" runs !truncated)
    true
    (!truncated > 0 && !truncated < runs);
  Alcotest.(check bool)
    (Printf.sprintf "conflicts exercised (%d invocations)" !conflicted)
    true (!conflicted > 100)

let () =
  Alcotest.run "suites"
    [
      ( "registry",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "categories" `Quick test_categories;
          Alcotest.test_case "loops present" `Quick test_every_benchmark_has_loops;
          Alcotest.test_case "analysis smoke" `Slow test_analysis_smoke;
          Alcotest.test_case "memory RAW oracle" `Slow test_mem_raw_oracle;
        ] );
      ("golden", List.map run_case golden);
    ]
