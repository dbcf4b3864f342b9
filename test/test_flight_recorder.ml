(* Flight-recorder satellites: the binary ring round-trips arbitrary
   event sequences byte-identically (wrap-around and interning
   included), the truncation contract survives overflow, and a brokered
   multi-tenant placement run satisfies the machine-level trace
   invariants end to end. *)

open Alcotest
module Trace = Skyloft_stats.Trace
module Trace_analysis = Skyloft_obs.Trace_analysis
module E = Skyloft_experiments

let qtest = QCheck_alcotest.to_alcotest

(* ---- property: ring round-trip -------------------------------------------

   Arbitrary event sequences — spans and instants of every kind, names
   drawn from a hot pool and from fresh runtime strings, payloads up to
   full 63-bit magnitude — pushed through a deliberately tiny ring so
   wrap-around is the common case.  The decode view must equal the last
   [capacity] events pushed, and the serialized image must survive
   [of_binary] byte-identically. *)

type op =
  | Op_span of { core : int; app : int; name : string; start : int; dur : int }
  | Op_instant of { core : int; at : int; kind_ix : int; name : string }

let n_kinds = List.length E.Trace_dump.all_kinds
let kind_of_ix ix = List.nth E.Trace_dump.all_kinds (ix mod n_kinds)

let op_gen =
  let open QCheck.Gen in
  let name_gen =
    oneof
      [
        oneofl [ "req"; "tick"; "t0-percpu"; "a" ];
        (* fresh strings exercise the interning table proper, not just
           the pointer memo; sizes 0..6 include the empty string *)
        string_size ~gen:(char_range 'a' 'z') (int_bound 6);
      ]
  in
  (* magnitudes from tiny to the 63-bit extremes the 8-byte encoding
     must carry (bit 62 is the int sign bit) *)
  let word_gen =
    oneof [ int_bound 1000; map (fun i -> i * 1_000_003) (int_bound 1_000_000);
            return max_int; return 0 ]
  in
  let span_gen =
    map
      (fun (core, app, name, (start, dur)) -> Op_span { core; app; name; start; dur })
      (quad (int_bound 63) word_gen name_gen
         (pair (int_bound 1_000_000_000) (int_bound 100_000)))
  in
  let instant_gen =
    map
      (fun (core, at, kind_ix, name) -> Op_instant { core; at; kind_ix; name })
      (quad (int_bound 63) (int_bound 1_000_000_000) (int_bound (n_kinds - 1))
         name_gen)
  in
  oneof [ span_gen; instant_gen ]

let scenario_gen =
  QCheck.Gen.(pair (int_range 1 12) (list_size (int_bound 40) op_gen))

let scenario_arb =
  QCheck.make scenario_gen
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity=%d, %d ops" cap (List.length ops))

let apply trace op =
  match op with
  | Op_span { core; app; name; start; dur } ->
      Trace.span trace ~core ~app ~name ~start ~stop:(start + dur)
  | Op_instant { core; at; kind_ix; name } ->
      Trace.instant trace ~core ~at (kind_of_ix kind_ix) ~name

let expected_event op =
  match op with
  | Op_span { core; app; name; start; dur } ->
      Trace.Span { core; app; name; start; stop = start + dur }
  | Op_instant { core; at; kind_ix; name } ->
      Trace.Instant { core; at; kind = kind_of_ix kind_ix; name }

let decode_view trace = List.rev (Trace.fold trace (fun acc ev -> ev :: acc) [])

(* the ring keeps the newest [cap] pushes: drop the front of the list *)
let retained cap ops =
  let n = List.length ops in
  List.filteri (fun i _ -> i >= n - cap) ops

let prop_ring_round_trip =
  QCheck.Test.make ~name:"flat ring: encode/decode/serialize round-trips"
    ~count:300 scenario_arb (fun (cap, ops) ->
      let trace = Trace.create ~capacity:cap () in
      List.iter (apply trace) ops;
      let n = List.length ops in
      let expect = List.map expected_event (retained cap ops) in
      if decode_view trace <> expect then false
      else if Trace.events trace <> min n cap then false
      else if Trace.dropped trace <> max 0 (n - cap) then false
      else
        (* image round-trip: reload and re-serialize byte-identically *)
        let img = Trace.to_binary trace in
        let trace' = Trace.of_binary img in
        Trace.to_binary trace' = img
        && decode_view trace' = expect
        && Trace.dropped trace' = Trace.dropped trace
        && Trace.interned trace' = Trace.interned trace
        && Trace.to_chrome_json trace' = Trace.to_chrome_json trace)

(* ---- truncation contract --------------------------------------------------

   Overflowing a tiny ring must (a) keep exactly the newest [capacity]
   events in the decode view, (b) count the rest as dropped, (c) say so
   in every export: the Chrome JSON "M" trailer carries dropped/retained
   through both the plain and the counter-track export, and the binary
   image carries the counter through a reload. *)

let test_truncation_contract () =
  let cap = 4 in
  let trace = Trace.create ~capacity:cap () in
  for i = 0 to 9 do
    Trace.instant trace ~core:0 ~at:(100 * i) Trace.Wakeup
      ~name:(Printf.sprintf "e%d" i)
  done;
  check int "retained = capacity" cap (Trace.events trace);
  check int "dropped = overflow" 6 (Trace.dropped trace);
  let names =
    List.map
      (function
        | Trace.Instant { name; _ } -> name
        | Trace.Span _ -> "span?")
      (decode_view trace)
  in
  check (list string) "decode view keeps the newest, oldest-first"
    [ "e6"; "e7"; "e8"; "e9" ] names;
  let trailer = {|"name":"skyloft_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":6,"retained":4}|} in
  let contains hay needle =
    try ignore (Str.search_forward (Str.regexp_string needle) hay 0); true
    with Not_found -> false
  in
  let plain = Trace.to_chrome_json trace in
  check bool "plain export carries the M trailer" true (contains plain trailer);
  check bool "plain export dropped the overflowed events" false
    (contains plain {|"e0"|});
  let perfetto = Trace_analysis.to_chrome_json trace in
  check bool "counter-track export preserves the M trailer" true
    (contains perfetto trailer);
  let reloaded = Trace.of_binary (Trace.to_binary trace) in
  check int "binary image carries the drop counter" 6 (Trace.dropped reloaded);
  check bool "machine checker declines a truncated ring" true
    (Trace_analysis.check_machine trace = [])

(* ---- machine-level invariants over a brokered fleet -----------------------

   The golden machine-obs cell (4 tenants, 3 runtimes, hoard + stale +
   crash faults, shared flight recorder), reloaded from its own binary
   image: per-core spans must be monotone and non-overlapping, and the
   tenant-health edges must pair up — every Quarantine matched by a
   Release (or the run ends quarantined). *)

let test_machine_invariants () =
  let p =
    E.Obs_report.run_machine_point ~seed:7 ~requests:400 ~instrumented:false
  in
  check int "ring dropped nothing" 0 p.E.Obs_report.m_dropped;
  (* go through the image: the checkers run on the decode-from-binary path *)
  let trace = Trace.of_binary p.E.Obs_report.m_binary in
  check int "no structural violations"
    0 (List.length (Trace_analysis.check trace));
  check int "no machine-level violations"
    0 (List.length (Trace_analysis.check_machine trace));
  (* per-core span monotonicity, asserted directly: on each core, every
     span starts no earlier than the previous one stopped *)
  let last_stop = Hashtbl.create 32 in
  let overlaps = ref 0 and spans = ref 0 in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Span { core; start; stop; _ } ->
          incr spans;
          (match Hashtbl.find_opt last_stop core with
          | Some prev when start < prev -> incr overlaps
          | _ -> ());
          Hashtbl.replace last_stop core stop
      | Trace.Instant _ -> ());
  check bool "spans recorded" true (!spans > 100);
  check int "per-core spans never overlap" 0 !overlaps;
  check bool "fleet spreads over several cores" true
    (Hashtbl.length last_stop >= 4);
  (* quarantine/release pairing per tenant: strict alternation, with an
     open quarantine allowed only at end of run *)
  let open_q = Hashtbl.create 4 in
  let quarantines = ref 0 and releases = ref 0 and unpaired = ref 0 in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Instant { kind = Trace.Quarantine; name; _ } ->
          incr quarantines;
          if Hashtbl.mem open_q name then incr unpaired
          else Hashtbl.replace open_q name ()
      | Trace.Instant { kind = Trace.Release; name; _ } ->
          incr releases;
          if Hashtbl.mem open_q name then Hashtbl.remove open_q name
          else incr unpaired
      | _ -> ());
  check bool "the hoarder was quarantined" true (!quarantines >= 1);
  check bool "quarantine was released" true (!releases >= 1);
  check int "edges strictly alternate per tenant" 0 !unpaired;
  check bool "at most one tenant ends the run quarantined" true
    (Hashtbl.length open_q <= 1)

(* ---- trace-dump on a corrupt image ----------------------------------------

   A truncated image and one whose record names an interned string that
   does not exist: [trace-dump] must report each as one line carrying the
   decoder's prefix exactly once, and exit 1 (not die on an uncaught
   exception). *)

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
  in
  go 0 0

let test_trace_dump_corrupt () =
  let trace = Trace.create ~capacity:8 () in
  Trace.span trace ~core:0 ~app:1 ~name:"req" ~start:10 ~stop:20;
  Trace.instant trace ~core:1 ~at:30 Trace.Preempt ~name:"req";
  let image = Trace.to_binary trace in
  let len = String.length image in
  (* the last record's name id: records are the image's tail, 64 bytes
     each, the id in their fourth 8-byte word *)
  let bad_id = Bytes.of_string image in
  Bytes.set bad_id (len - 64 + 24) '\x09';
  let cases =
    [
      ("truncated", String.sub image 0 (len - 10), "truncated records");
      ("bad name id", Bytes.to_string bad_id, "name id 9 out of range");
    ]
  in
  List.iter
    (fun (what, img, reason) ->
      let path = Filename.temp_file "skyloft_trace" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc img);
          match E.Trace_dump.dump ~path ~limit:0 with
          | _ -> failf "%s: decoded a corrupt image" what
          | exception E.Trace_dump.Error msg ->
              check int (what ^ ": one decoder prefix") 1
                (count_sub msg "Trace.of_binary:");
              check bool (what ^ ": names the fault") true (count_sub msg reason = 1);
              check bool (what ^ ": one line") false (String.contains msg '\n');
              check int (what ^ ": exit code") 1 (E.Trace_dump.run ~path ~limit:0)))
    cases

let suite =
  [
    qtest prop_ring_round_trip;
    test_case "ring overflow: truncation contract" `Quick
      test_truncation_contract;
    test_case "brokered fleet: machine-level trace invariants" `Slow
      test_machine_invariants;
    test_case "trace-dump: corrupt image, one-line error" `Quick
      test_trace_dump_corrupt;
  ]
