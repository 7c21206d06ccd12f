(* Differential fuzzing: generate random, type-correct, terminating Looplang
   programs and check the invariants that hold for *every* program:
   - the front-end produces verifier- and dominance-clean SSA;
   - the optimization pipeline preserves output and never increases cost;
   - the limit study runs and reports speedups >= 1 with sane coverage;
   - no statically Proven_doall loop exhibits a dynamic memory RAW
     (Loopa.Crosscheck, on an unpruned profile).

   Programs use a fixed skeleton: a handful of int scalars, one 16-element
   array (indices are masked), bounded for-loops, if/else, and a final
   checksum print — so every generated program terminates and stays in
   bounds by construction. *)

let var_names = [| "v0"; "v1"; "v2"; "v3" |]

type gctx = { buf : Buffer.t; mutable indent : int; mutable fresh : int }

let line ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (ctx.indent * 2) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

(* Random int expression over the scalar variables and the array. *)
let rec gen_expr st depth =
  let open QCheck.Gen in
  if depth = 0 then
    (match generate1 ~rand:st (int_range 0 3) with
    | 0 -> string_of_int (generate1 ~rand:st (int_range (-9) 9))
    | 1 | 2 -> var_names.(generate1 ~rand:st (int_range 0 3))
    | _ -> Printf.sprintf "arr[(%s) & 15]" var_names.(generate1 ~rand:st (int_range 0 3)))
  else
    let op = generate1 ~rand:st (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ]) in
    Printf.sprintf "(%s %s %s)" (gen_expr st (depth - 1)) op (gen_expr st (depth - 1))

let gen_cond st = Printf.sprintf "(%s) < (%s)" (gen_expr st 1) (gen_expr st 1)

let rec gen_stmt st ctx depth =
  let open QCheck.Gen in
  match generate1 ~rand:st (int_range 0 5) with
  | 0 | 1 ->
      line ctx "%s = %s;" var_names.(generate1 ~rand:st (int_range 0 3)) (gen_expr st 2)
  | 2 -> line ctx "arr[(%s) & 15] = %s;" (gen_expr st 1) (gen_expr st 2)
  | 3 when depth > 0 ->
      line ctx "if (%s) {" (gen_cond st);
      ctx.indent <- ctx.indent + 1;
      gen_block st ctx (depth - 1);
      ctx.indent <- ctx.indent - 1;
      if generate1 ~rand:st bool then begin
        line ctx "} else {";
        ctx.indent <- ctx.indent + 1;
        gen_block st ctx (depth - 1);
        ctx.indent <- ctx.indent - 1
      end;
      line ctx "}"
  | 4 when depth > 0 ->
      let iv = Printf.sprintf "it%d" ctx.fresh in
      ctx.fresh <- ctx.fresh + 1;
      let trip = generate1 ~rand:st (int_range 2 12) in
      line ctx "for (var %s: int = 0; %s < %d; %s = %s + 1) {" iv iv trip iv iv;
      ctx.indent <- ctx.indent + 1;
      gen_block st ctx (depth - 1);
      ctx.indent <- ctx.indent - 1;
      line ctx "}"
  | _ -> line ctx "%s = %s + 1;" var_names.(generate1 ~rand:st (int_range 0 3))
           var_names.(generate1 ~rand:st (int_range 0 3))

and gen_block st ctx depth =
  let n = QCheck.Gen.generate1 ~rand:st (QCheck.Gen.int_range 1 4) in
  for _ = 1 to n do
    gen_stmt st ctx depth
  done

let gen_program seed : string =
  let st = Random.State.make [| seed |] in
  let ctx = { buf = Buffer.create 512; indent = 0; fresh = 0 } in
  line ctx "fn main() -> int {";
  ctx.indent <- 1;
  line ctx "var arr: int[] = new int[16];";
  Array.iteri (fun i v -> line ctx "var %s: int = %d;" v (i * 3 + 1)) var_names;
  gen_block st ctx 3;
  line ctx "var check: int = v0 ^ v1 ^ v2 ^ v3;";
  line ctx "for (var i: int = 0; i < 16; i = i + 1) { check = check ^ arr[i] ^ i; }";
  line ctx "print_int(check);";
  ctx.indent <- 0;
  line ctx "}";
  Buffer.contents ctx.buf

let run m = Interp.Machine.run_main (Interp.Machine.create ~fuel:10_000_000 m)

let check_one seed =
  let src = gen_program seed in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.failf "seed %d: %s\n%s" seed m src) fmt in
  (* front-end invariants *)
  let m0 =
    match Frontend.compile src with
    | Ok m -> m
    | Error e -> fail "compile error %s" (Frontend.error_to_string e)
  in
  (match Cfg.Ssa_check.check_module m0 with
  | [] -> ()
  | errs -> fail "ssa: %s" (Cfg.Ssa_check.error_to_string (List.hd errs)));
  let out0 = run m0 in
  (* optimization preserves semantics and cost never grows *)
  let m1 = Frontend.compile_exn src in
  Opt.Pipeline.run_module m1;
  let out1 = run m1 in
  if out0.Interp.Machine.output <> out1.Interp.Machine.output then
    fail "optimized output differs: %S vs %S" out0.Interp.Machine.output
      out1.Interp.Machine.output;
  if out1.Interp.Machine.clock > out0.Interp.Machine.clock then
    fail "optimization increased cost %d -> %d" out0.Interp.Machine.clock
      out1.Interp.Machine.clock;
  (* the limit study accepts it; collect unpruned so the soundness
     cross-validator can see every memory event, and with range observation
     on so every header-phi value is checked against its proven interval *)
  let a =
    Loopa.Driver.analyze_source ~fuel:10_000_000 ~static_prune:false
      ~observe_ranges:true src
  in
  (match Loopa.Crosscheck.check a.Loopa.Driver.profile with
  | [] -> ()
  | vs -> fail "unsound static verdict: %s" (Loopa.Crosscheck.violation_to_string (List.hd vs)));
  (match Loopa.Crosscheck.check_ranges a.Loopa.Driver.profile with
  | [] -> ()
  | vs ->
      fail "unsound value range: %s"
        (Loopa.Crosscheck.range_violation_to_string (List.hd vs)));
  List.iter
    (fun cfg ->
      let r = Loopa.Driver.evaluate a cfg in
      if r.Loopa.Evaluate.speedup < 1.0 -. 1e-9 then
        fail "%s speedup %f < 1" (Loopa.Config.name cfg) r.Loopa.Evaluate.speedup;
      if r.Loopa.Evaluate.coverage_pct < -1e-9 || r.Loopa.Evaluate.coverage_pct > 100.0 +. 1e-9
      then fail "coverage out of range: %f" r.Loopa.Evaluate.coverage_pct)
    [
      Loopa.Config.of_string "reduc0-dep0-fn0 DOALL";
      Loopa.Config.of_string "reduc1-dep2-fn2 PDOALL";
      Loopa.Config.best_helix;
    ];
  (* graceful degradation: inject a fuel-out halfway through the same run.
     The truncated prefix must still profile (flagged), evaluate without
     raising, and stay sound under the cross-validator. *)
  let full_clock =
    a.Loopa.Driver.profile.Loopa.Profile.outcome.Interp.Machine.clock
  in
  if full_clock > 8 then begin
    let cut = full_clock / 2 in
    let t =
      Loopa.Driver.analyze_source ~fuel:10_000_000 ~static_prune:false
        ~faults:[ (cut, Interp.Machine.Inject_fuel_out) ]
        src
    in
    if not t.Loopa.Driver.profile.Loopa.Profile.truncated then
      fail "expected a truncated profile when cut at clock %d" cut;
    (match Loopa.Crosscheck.check t.Loopa.Driver.profile with
    | [] -> ()
    | vs ->
        fail "unsound verdict on truncated prefix: %s"
          (Loopa.Crosscheck.violation_to_string (List.hd vs)));
    List.iter
      (fun cfg ->
        let r = Loopa.Driver.evaluate t cfg in
        if not r.Loopa.Evaluate.truncated then
          fail "%s report not flagged truncated" (Loopa.Config.name cfg);
        if r.Loopa.Evaluate.speedup < 1.0 -. 1e-9 then
          fail "truncated %s speedup %f < 1" (Loopa.Config.name cfg)
            r.Loopa.Evaluate.speedup)
      [ Loopa.Config.of_string "reduc1-dep2-fn2 PDOALL"; Loopa.Config.best_helix ]
  end

(* On failure, capture the seed's program as a repro bundle (classified by
   re-running the same invariants through Repro.Pipeline), shrink it, and
   report the minimized program alongside the original failure — so a fuzz
   regression arrives pre-reduced. With FUZZ_REPRO_DIR set (the CI fuzz job
   sets it), the bundle is also written there as an artifact. *)
let fuzz_configs =
  [
    Loopa.Config.of_string "reduc0-dep0-fn0 DOALL";
    Loopa.Config.of_string "reduc1-dep2-fn2 PDOALL";
    Loopa.Config.best_helix;
  ]

let emit_bundle seed (b : Repro.Bundle.t) =
  match Sys.getenv_opt "FUZZ_REPRO_DIR" with
  | None -> None
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "fuzz-seed-%d.repro.json" seed) in
      Repro.Bundle.save path b;
      Some path

let check_one_with_repro seed =
  try check_one seed
  with original ->
    let src = gen_program seed in
    let b =
      Repro.Bundle.make
        ~target:(Printf.sprintf "fuzz-seed-%d" seed)
        ~source:src ~stage:Loopa.Driver.Fuzz ~fingerprint:"fuzz:unclassified"
        ~message:"fuzz invariant violation (not classified by the pipeline)"
        ~configs:fuzz_configs ~fuel:10_000_000 ~static_prune:false
        ~crosscheck:true ~check_invariants:true ()
    in
    (* stamp the bundle with the pipeline's own classification, then reduce *)
    let b = Option.value ~default:b (Repro.Pipeline.classify b) in
    let b, shrunk =
      match Repro.Shrink.shrink ~max_candidates:1_000 b with
      | Ok (sb, _) -> (sb, true)
      | Error _ -> (b, false)
    in
    let saved =
      match emit_bundle seed b with
      | Some path -> Printf.sprintf "\nrepro bundle: %s" path
      | None -> ""
    in
    if shrunk then
      Alcotest.failf "seed %d: %s [%s]%s\nminimized repro:\n%s"
        seed (Printexc.to_string original) b.Repro.Bundle.fingerprint saved
        b.Repro.Bundle.source
    else begin
      (match saved with "" -> () | s -> print_string s);
      raise original
    end

(* Corpus size defaults to 60; the CI acceptance fuzz job sets FUZZ_COUNT=500. *)
let fuzz_count =
  match Sys.getenv_opt "FUZZ_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 60)
  | None -> 60

let test_fuzz_corpus () =
  for seed = 1 to fuzz_count do
    check_one_with_repro seed
  done

(* The profiler's memory RAW detection agrees with the naive reference
   (Mem_oracle) on every corpus program, with static pruning on and off. *)
let test_mem_raw_oracle () =
  let conflicted = ref 0 in
  for seed = 1 to fuzz_count do
    List.iter
      (fun static_prune ->
        let ms = Loopa.Driver.prepare (Frontend.compile_exn (gen_program seed)) in
        let _, n =
          Mem_oracle.check ~what:(Printf.sprintf "seed %d" seed) ~fuel:10_000_000
            ~static_prune ms
        in
        conflicted := !conflicted + n)
      [ true; false ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "conflicts exercised (%d invocations)" !conflicted)
    true (!conflicted > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random programs" fuzz_count)
            `Slow test_fuzz_corpus;
          Alcotest.test_case "memory RAW oracle" `Slow test_mem_raw_oracle;
        ] );
    ]
