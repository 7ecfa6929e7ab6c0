(* Benchmark entry point: one workload, one seed, one run.

     main.exe --workload fig6|fig6-pages|serve --seed N --seconds S --trace 0|1

   Human-readable detail (per-cell Stats digests, accuracy against the
   paper, latency samples) goes to stdout first; the last line is one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones; a per-layer metric of a layer the workload does not
   exercise reads 0. Exits 1 when any correctness check failed. *)

module O = Repro_obs
open Perfbench

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_minstr_per_s", "Minstr/s");
    ("peak_rss_mb", "MB");
    ("fig6_gm_err", "ratio");
    ("req_p50_ms", "ms");
    ("req_p99_ms", "ms");
    ("req_per_s", "1/s");
  ]

let per_layer =
  List.map (fun (n, _, u) -> (n, u)) (Cell.layer_metrics (Cell.sums ()))
  @ [ ("exec.busy_frac", "ratio") ]
  @ List.concat_map
      (fun s -> [ ("exec." ^ s ^ "_p50_ms", "ms"); ("exec." ^ s ^ "_p99_ms", "ms") ])
      Serve.stages
  @ [ ("exec.served_without_run", "ratio"); ("obs.trace_overhead_pct", "%") ]

let usage = "main.exe --workload fig6|fig6-pages|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  fig6, fig6-pages or serve");
      ("--seed", Arg.Set_string seed, "N  workload seed, any integer");
      ("--seconds", Arg.Set_float seconds, "S  measurement time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed = Option.map Stream.fold_seed (int_of_string_opt !seed) in
  if seed = None || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then (prerr_endline usage; exit 2);
  let seed = Option.get seed and seconds = !seconds and traced = !trace = 1 in
  let tally = Tally.create () in
  let metrics =
    match (!workload, traced) with
    | "fig6", false -> Sim.run Sim.fig6 ~seed ~seconds tally
    | "fig6", true -> Sim.traced Sim.fig6 ~seed tally
    | "fig6-pages", false -> Sim.run Sim.fig6_pages ~seed ~seconds tally
    | "fig6-pages", true -> Sim.traced Sim.fig6_pages ~seed tally
    | "serve", false -> Serve.run ~seed ~seconds tally
    | "serve", true -> Serve.traced ~seed ~seconds tally
    | w, _ -> prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage); exit 2
  in
  let catalogue = if traced then per_layer else end_to_end in
  List.iter
    (fun (name, _, unit) ->
      if List.assoc_opt name catalogue <> Some unit then
        failwith (Printf.sprintf "metric %s [%s] is not in the catalogue" name unit))
    metrics;
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) metrics with
    | Some (_, v, _) -> v
    | None when traced -> 0.
    | None -> failwith ("end-to-end metric missing: " ^ name)
  in
  (* The layers must cover the job: what they leave out is Harness.run's
     own bookkeeping, a few percent at most. The result layer times a
     second heap hash outside the job, so the sum may overshoot a little. *)
  (if traced then
     let accounted = value "obs.accounted_frac" in
     if accounted < 0.95 || accounted > 1.05 then
       Tally.record tally
         (Error (Printf.sprintf "layers account for %.3f of the job wall, not 0.95-1.05" accounted)));
  let failed = Tally.failed tally in
  List.iter (fun r -> Printf.printf "failure: %s\n" r) (Tally.reasons tally);
  let json =
    O.Json.Obj
      [
        ("correct", O.Json.Bool (failed = 0));
        ("attempted", O.Json.Int (Tally.attempted tally));
        ("failed", O.Json.Int failed);
        ( "metrics",
          O.Json.Obj
            (List.map
               (fun (name, unit) ->
                 ( name,
                   O.Json.Obj
                     [ ("value", O.Json.Float (value name)); ("unit", O.Json.String unit) ] ))
               catalogue) );
      ]
  in
  print_endline (O.Json.to_string json);
  if failed > 0 then exit 1
