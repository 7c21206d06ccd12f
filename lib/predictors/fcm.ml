(* Finite Context Method predictor (Sazeides & Smith, MICRO'97): hashes the
   last [order] values into a context and predicts the value that followed
   that context last time.

   The context table has [2^table_bits] slots, but a stream touches few of
   them (streams are one loop invocation's values of one register), so only
   touched slots are stored. *)

let default_order = 2

let default_table_bits = 12

let name order = Printf.sprintf "fcm-%d" order

let default_name = name default_order

let create ?(order = default_order) ?(table_bits = default_table_bits) () :
    Predictor.t =
  if order < 1 then invalid_arg "Fcm.create: order must be at least 1";
  let mask = (1 lsl table_bits) - 1 in
  let table : (int, int64) Hashtbl.t = Hashtbl.create 8 in
  (* the last [order] values; [head] holds the newest, [filled] are valid *)
  let ring = Array.make order 0L in
  let head = ref 0 and filled = ref 0 in
  (* table slot of the current context; -1 until [order] values are seen *)
  let slot = ref (-1) in
  let rehash () =
    if !filled < order then slot := -1
    else begin
      let h = ref 5381 in
      for i = 0 to order - 1 do
        let v = ring.((!head - i + order) mod order) in
        h :=
          Int64.to_int
            (Int64.logand
               (Int64.mul (Int64.logxor v (Int64.of_int !h)) 0x9E3779B97F4A7C15L)
               Int64.max_int)
          land mask
      done;
      slot := !h
    end
  in
  {
    Predictor.name = (if order = default_order then default_name else name order);
    predict = (fun () -> if !slot < 0 then None else Hashtbl.find_opt table !slot);
    train =
      (fun v ->
        if !slot >= 0 then Hashtbl.replace table !slot v;
        head := (!head + 1) mod order;
        ring.(!head) <- v;
        if !filled < order then incr filled;
        rehash ());
    reset =
      (fun () ->
        Hashtbl.reset table;
        filled := 0;
        slot := -1);
  }
