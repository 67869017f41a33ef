open Agrid_sched

let tl intervals =
  let t = Timeline.create () in
  List.iter (fun (start, stop) -> Timeline.insert t ~start ~stop) intervals;
  t

let test_empty () =
  let t = Timeline.create () in
  Alcotest.(check int) "length" 0 (Timeline.length t);
  Alcotest.(check bool) "free" true (Timeline.is_free_at t 0);
  Alcotest.(check int) "horizon" 0 (Timeline.horizon t);
  Alcotest.(check int) "first fit" 5 (Timeline.first_fit t ~not_before:5 ~duration:10)

let test_insert_sorted () =
  let t = tl [ (10, 20); (0, 5); (30, 40) ] in
  Alcotest.(check (list (pair int int))) "sorted" [ (0, 5); (10, 20); (30, 40) ]
    (Timeline.to_list t);
  Alcotest.(check bool) "well formed" true (Timeline.well_formed t)

let test_insert_overlap_raises () =
  let t = tl [ (10, 20) ] in
  let raises start stop =
    match Timeline.insert t ~start ~stop with
    | () -> Alcotest.failf "insert (%d,%d) should overlap" start stop
    | exception Timeline.Overlap _ -> ()
  in
  raises 15 25;
  raises 5 11;
  raises 10 20;
  raises 12 18;
  raises 0 100;
  (* touching is fine: half-open intervals *)
  Timeline.insert t ~start:20 ~stop:25;
  Timeline.insert t ~start:5 ~stop:10;
  Alcotest.(check int) "three intervals" 3 (Timeline.length t)

let test_insert_validation () =
  let t = Timeline.create () in
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Timeline.insert: empty or negative interval") (fun () ->
      Timeline.insert t ~start:5 ~stop:5);
  Alcotest.check_raises "negative" (Invalid_argument "Timeline.insert: negative start")
    (fun () -> Timeline.insert t ~start:(-1) ~stop:5)

let test_is_free_at () =
  let t = tl [ (10, 20) ] in
  Alcotest.(check bool) "before" true (Timeline.is_free_at t 9);
  Alcotest.(check bool) "at start" false (Timeline.is_free_at t 10);
  Alcotest.(check bool) "inside" false (Timeline.is_free_at t 15);
  Alcotest.(check bool) "at stop (half-open)" true (Timeline.is_free_at t 20)

let test_is_free_range () =
  let t = tl [ (10, 20); (30, 40) ] in
  Alcotest.(check bool) "gap" true (Timeline.is_free t ~start:20 ~stop:30);
  Alcotest.(check bool) "overlap left" false (Timeline.is_free t ~start:15 ~stop:25);
  Alcotest.(check bool) "spanning" false (Timeline.is_free t ~start:0 ~stop:50);
  Alcotest.(check bool) "zero length" true (Timeline.is_free t ~start:15 ~stop:15)

let test_first_fit_gaps () =
  let t = tl [ (10, 20); (25, 30); (40, 50) ] in
  Alcotest.(check int) "before first" 0 (Timeline.first_fit t ~not_before:0 ~duration:10);
  Alcotest.(check int) "too long for leading gap" 50
    (Timeline.first_fit t ~not_before:0 ~duration:11);
  Alcotest.(check int) "gap of 5" 20 (Timeline.first_fit t ~not_before:12 ~duration:5);
  Alcotest.(check int) "gap of 10" 30 (Timeline.first_fit t ~not_before:12 ~duration:10);
  Alcotest.(check int) "after everything" 50 (Timeline.first_fit t ~not_before:12 ~duration:100);
  Alcotest.(check int) "not_before in gap" 21 (Timeline.first_fit t ~not_before:21 ~duration:4);
  Alcotest.(check int) "zero duration" 15 (Timeline.first_fit t ~not_before:15 ~duration:0)

let test_first_fit_inserts_consistent () =
  (* whatever first_fit returns must actually be insertable *)
  let t = tl [ (5, 10); (12, 30); (45, 60) ] in
  List.iter
    (fun (not_before, duration) ->
      let s = Timeline.first_fit t ~not_before ~duration in
      if s < not_before then Alcotest.fail "fit before not_before";
      if not (Timeline.is_free t ~start:s ~stop:(s + duration)) then
        Alcotest.fail "fit not actually free")
    [ (0, 1); (0, 2); (0, 5); (6, 2); (11, 1); (11, 2); (0, 100); (59, 3) ]

let joint a b ?(pending = [||]) ~not_before ~duration () =
  Timeline.first_fit_joint a b ~pending ~n_pending:(Array.length pending / 2)
    ~not_before ~duration

let test_first_fit_joint () =
  let a = tl [ (0, 10); (20, 30) ] in
  let b = tl [ (10, 15) ] in
  (* need 5: a free [10,20) and >=30; b free [0,10) and >=15.
     joint: [15, 20) works *)
  Alcotest.(check int) "joint" 15 (joint a b ~not_before:0 ~duration:5 ());
  (* need 8: a's [10,20) gap minus b's [10,15) leaves [15,20)=5 <8; next a slot is 30 *)
  Alcotest.(check int) "joint larger" 30 (joint a b ~not_before:0 ~duration:8 ());
  Alcotest.(check int) "joint empty" 7
    (joint (Timeline.create ()) (Timeline.create ()) ~not_before:7 ~duration:3 ());
  (* pending [15,17) kills the [15,20) slot; pending [32,34) then pushes
     past a's reopening at 30; unsorted on purpose *)
  Alcotest.(check int) "pending intervals respected" 34
    (joint a b ~pending:[| 32; 34; 15; 17 |] ~not_before:0 ~duration:5 ());
  Alcotest.(check int) "touching pending is free" 17
    (joint a b ~pending:[| 15; 17 |] ~not_before:0 ~duration:3 ());
  Alcotest.(check int) "only the first n_pending count" 15
    (Timeline.first_fit_joint a b ~pending:[| 15; 17 |] ~n_pending:0 ~not_before:0
       ~duration:5);
  Alcotest.check_raises "n_pending beyond capacity"
    (Invalid_argument "Timeline.first_fit_joint: n_pending out of range") (fun () ->
      ignore
        (Timeline.first_fit_joint a b ~pending:[| 15; 17 |] ~n_pending:2 ~not_before:0
           ~duration:5))

let test_remove () =
  let t = tl [ (0, 5); (10, 20) ] in
  Timeline.remove t ~start:0 ~stop:5;
  Alcotest.(check (list (pair int int))) "removed" [ (10, 20) ] (Timeline.to_list t);
  Alcotest.check_raises "absent" (Invalid_argument "Timeline.remove: no such interval")
    (fun () -> Timeline.remove t ~start:10 ~stop:19)

let test_busy_cycles () =
  let t = tl [ (0, 5); (10, 20) ] in
  Alcotest.(check int) "busy" 15 (Timeline.busy_cycles t)

let test_copy_independence () =
  let t = tl [ (0, 5) ] in
  let c = Testlib.copy_timeline t in
  Timeline.insert c ~start:10 ~stop:20;
  Alcotest.(check int) "original unchanged" 1 (Timeline.length t);
  Alcotest.(check int) "copy grew" 2 (Timeline.length c)

(* qcheck: random insert sequences keep the structure well-formed and
   first_fit always returns a genuinely free slot *)
let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (pair (int_range 0 500) (int_range 1 30)))

let test_qcheck_insert_invariant () =
  let prop ops =
    let t = Timeline.create () in
    List.iter
      (fun (start, len) ->
        match Timeline.insert t ~start ~stop:(start + len) with
        | () -> ()
        | exception Timeline.Overlap _ -> ())
      ops;
    Timeline.well_formed t
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:500 ~name:"insert keeps well-formed" gen_ops prop)

let test_qcheck_first_fit_minimal () =
  (* first_fit returns the *earliest* free slot: no free slot of the same
     duration may start earlier *)
  let prop (ops, (not_before, duration)) =
    let t = Timeline.create () in
    List.iter
      (fun (start, len) ->
        match Timeline.insert t ~start ~stop:(start + len) with
        | () -> ()
        | exception Timeline.Overlap _ -> ())
      ops;
    let s = Timeline.first_fit t ~not_before ~duration in
    if not (Timeline.is_free t ~start:s ~stop:(s + duration)) then false
    else begin
      (* exhaustively confirm minimality over the bounded range *)
      let minimal = ref true in
      for cand = not_before to s - 1 do
        if Timeline.is_free t ~start:cand ~stop:(cand + duration) then minimal := false
      done;
      !minimal
    end
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:300 ~name:"first_fit minimal"
       QCheck2.Gen.(pair gen_ops (pair (int_range 0 200) (int_range 1 20)))
       prop)

(* The joint fit returns the least start free on both timelines and clear
   of every pending interval — exhaustively checked over the bounded range.
   With nothing pending it must also agree with the two-timeline reference
   fit the planner oracle uses (Testlib.first_fit_joint). *)
let test_qcheck_joint_fit_free_on_both () =
  let gen_pending =
    QCheck2.Gen.(list_size (int_range 0 6) (pair (int_range 0 300) (int_range 1 30)))
  in
  let prop ((ops_a, ops_b), (pending, (not_before, duration))) =
    let mk ops =
      let t = Timeline.create () in
      List.iter
        (fun (start, len) ->
          match Timeline.insert t ~start ~stop:(start + len) with
          | () -> ()
          | exception Timeline.Overlap _ -> ())
        ops;
      t
    in
    let a = mk ops_a and b = mk ops_b in
    let pending =
      Array.of_list (List.concat_map (fun (start, len) -> [ start; start + len ]) pending)
    in
    let s = joint a b ~pending ~not_before ~duration () in
    let free c =
      Timeline.is_free a ~start:c ~stop:(c + duration)
      && Timeline.is_free b ~start:c ~stop:(c + duration)
      &&
      let clear = ref true in
      for k = 0 to (Array.length pending / 2) - 1 do
        if pending.(2 * k) < c + duration && pending.((2 * k) + 1) > c then clear := false
      done;
      !clear
    in
    let minimal = ref true in
    for c = not_before to s - 1 do
      if free c then minimal := false
    done;
    s >= not_before && free s && !minimal
    && joint a b ~not_before ~duration ()
       = Testlib.first_fit_joint a b ~not_before ~duration
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:500 ~name:"joint fit free on both + pending, minimal"
       QCheck2.Gen.(
         pair (pair gen_ops gen_ops)
           (pair gen_pending (pair (int_range 0 200) (int_range 1 20))))
       prop)

let suites =
  [
    ( "timeline",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "insert sorted" `Quick test_insert_sorted;
        Alcotest.test_case "insert overlap raises" `Quick test_insert_overlap_raises;
        Alcotest.test_case "insert validation" `Quick test_insert_validation;
        Alcotest.test_case "is_free_at" `Quick test_is_free_at;
        Alcotest.test_case "is_free range" `Quick test_is_free_range;
        Alcotest.test_case "first_fit gaps" `Quick test_first_fit_gaps;
        Alcotest.test_case "first_fit consistency" `Quick test_first_fit_inserts_consistent;
        Alcotest.test_case "first_fit_joint" `Quick test_first_fit_joint;
        Alcotest.test_case "remove" `Quick test_remove;
        Alcotest.test_case "busy cycles" `Quick test_busy_cycles;
        Alcotest.test_case "copy independence" `Quick test_copy_independence;
        Alcotest.test_case "qcheck insert invariant" `Quick test_qcheck_insert_invariant;
        Alcotest.test_case "qcheck first_fit minimal" `Quick test_qcheck_first_fit_minimal;
        Alcotest.test_case "qcheck joint fit" `Quick test_qcheck_joint_fit_free_on_both;
      ] );
  ]
