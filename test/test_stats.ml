(* Tests for histograms and run summaries. *)

module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_hist_empty () =
  let h = Histogram.create () in
  check Alcotest.bool "empty" true (Histogram.is_empty h);
  check Alcotest.int "count" 0 (Histogram.count h);
  check Alcotest.int "p99 of empty" 0 (Histogram.percentile h 99.0);
  check Alcotest.int "min" 0 (Histogram.min_value h);
  check Alcotest.int "max" 0 (Histogram.max_value h)

let test_hist_exact_small_values () =
  (* values below sub_buckets are recorded exactly *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check Alcotest.int "p50" 5 (Histogram.percentile h 50.0);
  check Alcotest.int "p100" 10 (Histogram.percentile h 100.0);
  check Alcotest.int "p10" 1 (Histogram.percentile h 10.0);
  check Alcotest.int "min" 1 (Histogram.min_value h);
  check Alcotest.int "max" 10 (Histogram.max_value h)

let test_hist_minmax_exact () =
  let h = Histogram.create () in
  Histogram.record h 123_456_789;
  Histogram.record h 42;
  check Alcotest.int "min exact" 42 (Histogram.min_value h);
  check Alcotest.int "max exact" 123_456_789 (Histogram.max_value h)

let test_hist_record_n () =
  let h = Histogram.create () in
  Histogram.record_n h 100 ~n:1000;
  Histogram.record_n h 10_000 ~n:10;
  check Alcotest.int "count" 1010 (Histogram.count h);
  check Alcotest.bool "p50 near 100" true (abs (Histogram.percentile h 50.0 - 100) <= 2)

let test_hist_percentile_monotone () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.record h i
  done;
  let last = ref 0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      check Alcotest.bool (Printf.sprintf "p%.1f monotone" p) true (v >= !last);
      last := v)
    [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ]

let prop_hist_relative_error =
  QCheck.Test.make ~name:"histogram percentile relative error < 2/sub_buckets"
    ~count:200
    QCheck.(int_range 1 1_000_000_000)
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      let p = Histogram.percentile h 100.0 in
      (* single value: percentile = max_value = exact *)
      p = v)

let prop_hist_bucket_error =
  QCheck.Test.make ~name:"histogram p50 error bounded" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 1 10_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let sorted = List.sort compare values in
      let exact = List.nth sorted ((List.length values - 1) / 2) in
      let approx = Histogram.percentile h 50.0 in
      (* log-linear buckets with 64 sub-buckets: <= ~3.2% error *)
      float_of_int (abs (approx - exact)) <= (0.032 *. float_of_int exact) +. 1.0)

let test_hist_mean () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 10; 20; 30 ];
  check Alcotest.bool "mean ~20" true (abs_float (Histogram.mean h -. 20.0) < 0.5)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 5;
  Histogram.record b 500_000;
  Histogram.merge_into ~src:b ~dst:a;
  check Alcotest.int "merged count" 2 (Histogram.count a);
  check Alcotest.int "merged min" 5 (Histogram.min_value a);
  check Alcotest.int "merged max" 500_000 (Histogram.max_value a)

let test_hist_reset () =
  let h = Histogram.create () in
  Histogram.record h 99;
  Histogram.reset h;
  check Alcotest.bool "reset empty" true (Histogram.is_empty h)

let test_hist_negative_raises () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.record: negative value")
    (fun () -> Histogram.record h (-1))

let test_hist_bad_subbuckets () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Histogram.create: sub_buckets must be a power of two") (fun () ->
      ignore (Histogram.create ~sub_buckets:33 ()))

(* ---- Summary ---- *)

let test_summary_latency_and_slowdown () =
  let s = Summary.create () in
  (* request: arrived 0, completed 100, service 50 -> latency 100, slowdown 2.0 *)
  Summary.record_request s ~arrival:0 ~completion:100 ~service:50;
  check Alcotest.int "requests" 1 (Summary.requests s);
  check Alcotest.int "latency p100" 100 (Summary.latency_p s 100.0);
  check (Alcotest.float 0.05) "slowdown" 2.0 (Summary.slowdown_p s 100.0)

let test_summary_slowdown_floor () =
  let s = Summary.create () in
  (* completion = arrival: slowdown must still be >= 1 *)
  Summary.record_request s ~arrival:0 ~completion:0 ~service:50;
  check Alcotest.bool "slowdown >= 1" true (Summary.slowdown_p s 100.0 >= 1.0)

let test_summary_throughput () =
  let s = Summary.create () in
  for i = 1 to 1000 do
    Summary.record_request s ~arrival:i ~completion:(i + 10) ~service:5
  done;
  let rps = Summary.throughput_rps s ~duration:1_000_000_000 in
  check (Alcotest.float 0.001) "1000 req over 1s" 1000.0 rps

let test_summary_merge () =
  let a = Summary.create () and b = Summary.create () in
  Summary.record_request a ~arrival:0 ~completion:10 ~service:10;
  Summary.record_request b ~arrival:0 ~completion:20 ~service:10;
  Summary.record_wakeup b 77;
  Summary.merge_into ~src:b ~dst:a;
  check Alcotest.int "merged requests" 2 (Summary.requests a);
  check Alcotest.int "merged wakeups" 77 (Summary.wakeup_p a 100.0)

let test_summary_invalid () =
  let s = Summary.create () in
  check Alcotest.bool "completion < arrival raises" true
    (try
       Summary.record_request s ~arrival:10 ~completion:5 ~service:1;
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "negative service raises" true
    (try
       Summary.record_request s ~arrival:0 ~completion:5 ~service:(-1);
       false
     with Invalid_argument _ -> true);
  (* zero service is legal: the request still has a latency, it just
     contributes no slowdown sample (slowdown would divide by zero) *)
  Summary.record_request s ~arrival:0 ~completion:5 ~service:0;
  check Alcotest.int "zero-service request counted" 1 (Summary.requests s)

let test_timeseries_empty_mean () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create () in
  check (Alcotest.float 1e-9) "empty mean is 0" 0.0 (Timeseries.mean s ~until:1_000);
  check (Alcotest.float 1e-9) "empty integral is 0" 0.0
    (Timeseries.integrate s ~until:1_000)

let test_timeseries_integrate () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create () in
  Timeseries.record s ~at:0 2;
  Timeseries.record s ~at:100 6;
  (* 2 for 100 ns, then 6 for 100 ns *)
  check (Alcotest.float 1e-6) "integral is the step area" 800.0
    (Timeseries.integrate s ~until:200);
  check (Alcotest.float 1e-6) "mean is integral over window" 4.0
    (Timeseries.mean s ~until:200);
  (* a window ending before the last sample still integrates the prefix *)
  check (Alcotest.float 1e-6) "prefix integral" 200.0
    (Timeseries.integrate s ~until:100)

let test_timeseries_truncation_exact () =
  (* A wrapped series must agree with an unbounded reference: eviction
     folds each dropped sample's holding interval into the truncation
     accumulators, so integrate/mean stay exact over the full history. *)
  let module Timeseries = Skyloft_stats.Timeseries in
  let small = Timeseries.create ~capacity:4 () in
  let big = Timeseries.create ~capacity:10_000 () in
  (* [grown]'s storage starts below its capacity, grows to it, then wraps *)
  let grown = Timeseries.create ~capacity:3_000 () in
  (* distinct values so collapsing never kicks in; irregular spacing *)
  for i = 0 to 4_999 do
    let at = i * 7 and v = (i * 13 mod 97) + i in
    Timeseries.record small ~at v;
    Timeseries.record big ~at v;
    Timeseries.record grown ~at v
  done;
  let until = 5_000 * 7 in
  check Alcotest.int "reference dropped nothing" 0 (Timeseries.dropped big);
  check Alcotest.bool "wrapped series dropped samples" true
    (Timeseries.dropped small > 0);
  check Alcotest.int "window holds capacity samples" 4 (Timeseries.length small);
  check Alcotest.int "grown series dropped the excess" 2_000
    (Timeseries.dropped grown);
  check
    Alcotest.(list (pair int int))
    "grown series keeps the newest window"
    (List.filteri (fun i _ -> i >= 2_000) (Timeseries.to_list big))
    (Timeseries.to_list grown);
  List.iter
    (fun s ->
      check (Alcotest.float 1e-6) "integral exact across eviction"
        (Timeseries.integrate big ~until)
        (Timeseries.integrate s ~until);
      check (Alcotest.float 1e-9) "mean exact across eviction"
        (Timeseries.mean big ~until)
        (Timeseries.mean s ~until))
    [ small; grown ]

let test_timeseries_truncated_span () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create ~capacity:2 () in
  Timeseries.record s ~at:0 1;
  Timeseries.record s ~at:100 2;
  check Alcotest.int "no truncation before wrap" 0 (Timeseries.truncated_span s);
  Timeseries.record s ~at:250 3;
  (* the at:0 sample (held 0..100) scrolled out *)
  check Alcotest.int "span of the evicted holding interval" 100
    (Timeseries.truncated_span s);
  check Alcotest.int "one sample dropped" 1 (Timeseries.dropped s);
  Timeseries.record s ~at:400 4;
  (* now at:100 (held 100..250) is gone too *)
  check Alcotest.int "span accumulates" 250 (Timeseries.truncated_span s);
  (* window-only views see just the retained ring *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "window holds the two newest" [ (250, 3); (400, 4) ]
    (Timeseries.to_list s);
  (* full-history accounting: 1*100 + 2*150 + 3*150 + 4*100 = 1250 *)
  check (Alcotest.float 1e-6) "integral covers evicted prefix" 1250.0
    (Timeseries.integrate s ~until:500);
  check (Alcotest.float 1e-9) "mean over full span" (1250.0 /. 500.0)
    (Timeseries.mean s ~until:500)

let test_timeseries_capacity_one () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create ~capacity:1 () in
  Timeseries.record s ~at:0 5;
  Timeseries.record s ~at:10 7;
  Timeseries.record s ~at:30 9;
  (* evicted intervals close at the incoming sample: 5*10 + 7*20 *)
  check Alcotest.int "span at capacity 1" 30 (Timeseries.truncated_span s);
  check (Alcotest.float 1e-6) "integral at capacity 1"
    (50.0 +. 140.0 +. (9.0 *. 10.0))
    (Timeseries.integrate s ~until:40)

let suite =
  [
    Alcotest.test_case "timeseries: empty mean" `Quick test_timeseries_empty_mean;
    Alcotest.test_case "timeseries: integrate" `Quick test_timeseries_integrate;
    Alcotest.test_case "timeseries: truncation exact" `Quick
      test_timeseries_truncation_exact;
    Alcotest.test_case "timeseries: truncated span" `Quick
      test_timeseries_truncated_span;
    Alcotest.test_case "hist: empty" `Quick test_hist_empty;
    Alcotest.test_case "hist: exact small" `Quick test_hist_exact_small_values;
    Alcotest.test_case "hist: min/max exact" `Quick test_hist_minmax_exact;
    Alcotest.test_case "hist: record_n" `Quick test_hist_record_n;
    Alcotest.test_case "hist: monotone percentiles" `Quick test_hist_percentile_monotone;
    qtest prop_hist_relative_error;
    qtest prop_hist_bucket_error;
    Alcotest.test_case "hist: mean" `Quick test_hist_mean;
    Alcotest.test_case "hist: merge" `Quick test_hist_merge;
    Alcotest.test_case "hist: reset" `Quick test_hist_reset;
    Alcotest.test_case "hist: negative raises" `Quick test_hist_negative_raises;
    Alcotest.test_case "hist: bad subbuckets" `Quick test_hist_bad_subbuckets;
    Alcotest.test_case "summary: latency+slowdown" `Quick test_summary_latency_and_slowdown;
    Alcotest.test_case "summary: slowdown floor" `Quick test_summary_slowdown_floor;
    Alcotest.test_case "summary: throughput" `Quick test_summary_throughput;
    Alcotest.test_case "summary: merge" `Quick test_summary_merge;
    Alcotest.test_case "summary: invalid input" `Quick test_summary_invalid;
  ]
