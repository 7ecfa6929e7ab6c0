(* The benchmark's own checks, at a tiny scale. *)

open Perfbench
module X = Repro_exec
module G = Repro_gpu

let check_float msg = Alcotest.(check (float 0.)) msg

let percentile_rule () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  let p = Pct.summarize (samples 1000) in
  Alcotest.(check int) "count" 1000 p.Pct.n;
  check_float "p99 of 1000 has ten beyond" 990. p.Pct.tail;
  check_float "at p99" 99. p.Pct.tail_pct;
  check_float "median" 500. p.Pct.p50;
  let p = Pct.summarize (samples 100) in
  check_float "100 samples support only p90" 90. p.Pct.tail;
  check_float "at p90" 90. p.Pct.tail_pct;
  let p = Pct.summarize (samples 2000) in
  check_float "capped at p99" 1980. p.Pct.tail;
  let p = Pct.summarize (samples 10) in
  Alcotest.(check bool) "ten samples support no tail" false p.Pct.supported;
  check_float "so the maximum" 10. p.Pct.tail;
  check_float "even median" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ])

let failure_accounting () =
  let t = Tally.create () in
  for i = 1 to 980 do
    Tally.record ~latency_s:(float_of_int i /. 1000.) t (Ok ())
  done;
  for _ = 1 to 20 do
    Tally.record ~latency_s:0.001 t (Error "boom")
  done;
  Tally.record t (Error "untimed");
  Alcotest.(check int) "attempted" 1001 (Tally.attempted t);
  Alcotest.(check int) "failed" 21 (Tally.failed t);
  Alcotest.(check int) "timed samples" 1000 (Array.length (Tally.latencies t));
  let p = Pct.summarize (Tally.latencies t) in
  Alcotest.(check bool) "failures miss every limit" true (p.Pct.tail = infinity);
  check_float "reported as the largest float" Float.max_float (Pct.finite p.Pct.tail);
  check_float "median of the successes" 0.5 p.Pct.p50;
  Alcotest.(check (list string)) "reasons kept" [ "boom"; "boom" ]
    (List.filteri (fun i _ -> i < 2) (Tally.reasons t))

let tiny_job ?pages technique =
  match
    X.Request.Spec.resolve
      (X.Request.Spec.make ?pages ~scale:0.01 ~workload:"TRAF" ~technique ())
  with
  | Ok j -> j
  | Error m -> failwith m

let offline_replay () =
  List.iter
    (fun technique ->
      let job = tiny_job technique in
      let c = Cell.measure ~retain:true job in
      (match c.Cell.replay with
       | Some r -> Alcotest.(check bool) (technique ^ " replay identical") true r.Cell.identical
       | None -> Alcotest.fail "no replay");
      Alcotest.(check string) "instrumented job = plain job"
        (Cell.digest (X.Job.run job)) (Cell.digest c.Cell.run);
      Alcotest.(check bool) "a different Stats is caught" false
        (Cell.matches (G.Stats.create ()) c.Cell.run);
      let s = Cell.sums () in
      Cell.add s c;
      let accounted = List.assoc "obs.accounted_frac"
          (List.map (fun (n, v, _) -> (n, v)) (Cell.layer_metrics s)) in
      Alcotest.(check bool) "layers within the job" true (accounted > 0. && accounted <= 1.))
    [ "cuda"; "tp" ];
  let c = Cell.measure (tiny_job ~pages:"coalesce" "tp") in
  Alcotest.(check bool) "no retention, no replay" true (c.Cell.replay = None)

let same_stream () =
  let ops seed client =
    let next = Stream.client ~seed ~client in
    List.init 500 (fun _ -> next ())
  in
  Alcotest.(check bool) "same seed, same stream" true (ops 7 0 = ops 7 0);
  Alcotest.(check bool) "another seed, another stream" false (ops 7 0 = ops 8 0);
  Alcotest.(check bool) "clients differ" false (ops 7 0 = ops 7 1);
  Alcotest.(check int) "in-range seed kept" 424242 (Stream.fold_seed 424242);
  Alcotest.(check (list int)) "any integer seed folds into range" [ 592653; 999999 ]
    (List.map Stream.fold_seed [ 3141592653; -1 ]);
  let pool = Stream.pool ~seed:7 in
  Alcotest.(check int) "pool is the Fig. 6 matrix" 55 (Array.length pool);
  let novel =
    List.concat_map
      (fun c -> List.filter_map (function Stream.Novel s -> Some s | _ -> None) (ops 7 c))
      [ 0; 1 ]
  in
  Alcotest.(check bool) "some novel submits" true (List.length novel > 10);
  Alcotest.(check int) "novel specs are distinct" (List.length novel)
    (List.length (List.sort_uniq compare novel));
  Alcotest.(check bool) "and never pool specs" true
    (List.for_all (fun s -> not (Array.exists (X.Request.Spec.equal s) pool)) novel);
  let next = Stream.client ~seed:7 ~client:0 in
  let rec first_round acc =
    if List.length acc = Array.length pool then acc
    else
      match next () with
      | Stream.Novel s -> first_round ((s.X.Request.Spec.workload, s.technique) :: acc)
      | _ -> first_round acc
  in
  Alcotest.(check int) "a round of novel specs covers every cell" (Array.length pool)
    (List.length (List.sort_uniq compare (first_round [])))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "failure accounting" `Quick failure_accounting;
          Alcotest.test_case "offline replay identity" `Quick offline_replay;
          Alcotest.test_case "seeded serve stream" `Quick same_stream;
        ] );
    ]
