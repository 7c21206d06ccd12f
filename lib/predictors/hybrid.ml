(* Perfectly hybridized predictor bank (paper §III-C): an LCD instance counts
   as predicted if *any* component predictor got it right. The paper argues
   this upper-bounds realistic hybrids without baking in a particular
   confidence scheme. *)

(* Each component carries interned hit/miss counters so the per-instance
   telemetry bump never hashes a name; every counter op is a no-op while
   telemetry is disabled. *)
type slot = {
  p : Predictor.t;
  hits_c : Obs.Telemetry.counter;
  misses_c : Obs.Telemetry.counter;
}

type t = { slots : slot list }

let c_hybrid_hits = Obs.Telemetry.counter "predictor.hybrid.hits"

let c_hybrid_misses = Obs.Telemetry.counter "predictor.hybrid.misses"

let slot_of (p : Predictor.t) =
  {
    p;
    hits_c = Obs.Telemetry.counter ("predictor." ^ p.Predictor.name ^ ".hits");
    misses_c = Obs.Telemetry.counter ("predictor." ^ p.Predictor.name ^ ".misses");
  }

let default_components () =
  [ Last_value.create (); Stride.create (); Two_delta.create (); Fcm.create () ]

(* A bank is built per watched register of every loop invocation, so the
   default bank's counters are interned once, on the first [create]. *)
let default_slots = lazy (List.map slot_of (default_components ()))

let create ?(components = None) () : t =
  match components with
  | Some cs -> { slots = List.map slot_of cs }
  | None ->
      {
        slots =
          List.map2
            (fun p s -> { s with p })
            (default_components ()) (Lazy.force default_slots);
      }

let reset t = List.iter (fun s -> s.p.Predictor.reset ()) t.slots

(* Returns whether any component would have predicted [v], then trains all.
   Every component is consulted (no short-circuit) so per-component accuracy
   counters stay meaningful; [predict] never mutates, so this is free of
   semantic effect. *)
let step t (v : int64) : bool =
  let hit =
    List.fold_left
      (fun acc s ->
        let h =
          match s.p.Predictor.predict () with
          | Some g -> Int64.equal g v
          | None -> false
        in
        Obs.Telemetry.incr (if h then s.hits_c else s.misses_c);
        acc || h)
      false t.slots
  in
  List.iter (fun s -> s.p.Predictor.train v) t.slots;
  Obs.Telemetry.incr (if hit then c_hybrid_hits else c_hybrid_misses);
  hit

let hits t stream =
  reset t;
  List.map (step t) stream

(* Bit image of a runtime value, the currency predictors work in. *)
let bits_of_rv : Interp.Rvalue.rv -> int64 = function
  | Interp.Rvalue.Vint i -> i
  | Interp.Rvalue.Vfloat f -> Int64.bits_of_float f
  | Interp.Rvalue.Vbool b -> if b then 1L else 0L
