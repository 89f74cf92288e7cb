(* Unit tests of the benchmark's own metric code. *)

open Perfbench

let feq = Alcotest.float 1e-12

let test_percentile () =
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let p99 = Quantile.of_sorted sorted 0.99 in
  Alcotest.check feq "p99 interpolates" 990.01 p99.Quantile.value;
  Alcotest.(check int) "p99 samples" 1000 p99.Quantile.samples;
  let strictly_above =
    Array.fold_left (fun a x -> if x > p99.Quantile.value then a + 1 else a) 0 sorted
  in
  Alcotest.(check int) "beyond = samples above" strictly_above p99.Quantile.beyond;
  Alcotest.(check int) "ten beyond p99 of 1000" 10 p99.Quantile.beyond;
  let p50 = Quantile.of_sorted sorted 0.5 in
  Alcotest.check feq "median" 500.5 p50.Quantile.value;
  Alcotest.(check int) "half beyond the median" 500 p50.Quantile.beyond;
  Alcotest.(check int) "one beyond p99 of 100" 1 (Quantile.beyond ~samples:100 0.99);
  let empty = Quantile.of_sorted [||] 0.99 in
  Alcotest.(check int) "empty sample" 0 (empty.Quantile.samples + empty.Quantile.beyond);
  let from_summary = Quantile.of_summary ~samples:1000 ~value:990.01 0.99 in
  Alcotest.(check int) "summary beyond agrees" p99.Quantile.beyond from_summary.Quantile.beyond

let span id parent start stop = { Wspan.id; parent; name = "s"; start; stop }

let test_self_time () =
  let root = span 1 0 0.0 10.0 in
  let all =
    [
      root;
      span 2 1 1.0 3.0;
      (* Overlaps the previous child: covered time counts once. *)
      span 3 1 2.0 4.0;
      (* Reaches past the parent: only the part inside counts. *)
      span 4 1 9.0 12.0;
      (* A grandchild is covered by its parent already. *)
      span 5 2 1.5 2.5;
    ]
  in
  Alcotest.check feq "self = duration - child coverage" 6.0 (Wspan.self_time all root);
  Alcotest.check feq "leaf self = duration" 1.0 (Wspan.self_time all (span 5 2 1.5 2.5));
  Alcotest.check feq "child self excludes grandchild" 1.0
    (Wspan.self_time all (span 2 1 1.0 3.0))

let test_recorder () =
  let t = Wspan.create ~enabled:true in
  let v = Wspan.record t "outer" (fun () -> Wspan.record t "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 v;
  (match Wspan.spans t with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first" "outer" outer.Wspan.name;
    Alcotest.(check int) "inner is a child of outer" outer.Wspan.id inner.Wspan.parent;
    Alcotest.(check bool) "nested in time" true
      (outer.Wspan.start <= inner.Wspan.start && inner.Wspan.stop <= outer.Wspan.stop)
  | _ -> Alcotest.fail "two spans expected");
  (try Wspan.record t "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "a raising thunk still closes its span" true
    (List.exists (fun s -> s.Wspan.name = "raises") (Wspan.spans t));
  let off = Wspan.create ~enabled:false in
  Alcotest.(check int) "disabled runs the thunk" 7 (Wspan.record off "x" (fun () -> 7));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Wspan.spans off))

let test_round_trip () =
  let line =
    {
      Result_line.correct = true;
      attempted = 95820;
      failed = 0;
      metrics =
        [
          { Result_line.name = "wall_s"; value = 2.4844340085983276; unit_ = "s" };
          { Result_line.name = "setup_s"; value = 0.1 +. 0.2; unit_ = "s" };
          { Result_line.name = "vtput_per_s"; value = 1768.0; unit_ = "1/s" };
          { Result_line.name = "tiny"; value = 1.5e-300; unit_ = "ms" };
        ];
    }
  in
  let rendered = Result_line.render line in
  Alcotest.(check bool) "one line" false (String.contains rendered '\n');
  match Result_line.parse rendered with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check bool) "correct" line.Result_line.correct back.Result_line.correct;
    Alcotest.(check int) "attempted" line.Result_line.attempted back.Result_line.attempted;
    Alcotest.(check int) "failed" line.Result_line.failed back.Result_line.failed;
    List.iter2
      (fun (a : Result_line.metric) (b : Result_line.metric) ->
        Alcotest.(check string) "name" a.Result_line.name b.Result_line.name;
        Alcotest.(check string) "unit" a.Result_line.unit_ b.Result_line.unit_;
        Alcotest.(check bool) (a.Result_line.name ^ " exact") true
          (Float.equal a.Result_line.value b.Result_line.value))
      line.Result_line.metrics back.Result_line.metrics

let test_render_rejects () =
  let bad metrics = { Result_line.correct = true; attempted = 1; failed = 0; metrics } in
  let m name value = { Result_line.name; value; unit_ = "s" } in
  Alcotest.check_raises "nan" (Invalid_argument "Result_line.render: non-finite x") (fun () ->
      ignore (Result_line.render (bad [ m "x" Float.nan ])));
  Alcotest.check_raises "duplicate" (Invalid_argument "Result_line.render: duplicate x")
    (fun () -> ignore (Result_line.render (bad [ m "x" 1.0; m "x" 2.0 ])))

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "percentile and samples beyond" `Quick test_percentile;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "span recorder" `Quick test_recorder;
          Alcotest.test_case "result line round trip" `Quick test_round_trip;
          Alcotest.test_case "result line rejects" `Quick test_render_rejects;
        ] );
    ]
