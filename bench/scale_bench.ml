(* Paper-scale throughput and digest gate.

   Runs the Fig. 6 matrix (every registered workload x paper technique)
   once per cell through [Harness.run] — build, all iterations, result
   hash: the same work `repro sweep` does per cell — and records each
   cell's wall time, simulated-instruction throughput and
   [Harness.digest] (Stats, heap checksum and result in one hash).

   Usage: bench/scale_bench.exe [--scale F] [--out PATH]
                                [--workloads A,B] [--techniques a,b]
                                [--golden PATH]

   Defaults: scale 1.0, BENCH_scale1.json, full matrix. With --golden,
   every selected cell's digest must equal that job's [stats_digest] in
   PATH (a previous output of this tool at the same scale); the tool
   exits 1 on any difference or missing job, so the committed
   BENCH_scale1.json doubles as the paper-scale identity gate. PATH is
   read before --out is written, so both may name the same file.

   Two throughput views per cell:
     - end-to-end Minstr/s: simulated instructions / whole-job wall,
       what a sweep user experiences (includes object allocation and
       host-side setup);
     - kernel Minstr/s: instructions / (emission + replay) wall only. *)

module G = Repro_gpu
module R = Repro_core
module W = Repro_workloads
module O = Repro_obs

let scale, out_path, only_workloads, only_techniques, golden_path =
  let scale = ref 1.0 in
  let out = ref "BENCH_scale1.json" in
  let wl = ref [] and tq = ref [] in
  let golden = ref None in
  let csv r s =
    r := List.map String.lowercase_ascii (String.split_on_char ',' s)
  in
  let usage =
    "scale_bench.exe [--scale F] [--out PATH] [--workloads A,B] \
     [--techniques a,b] [--golden PATH]"
  in
  Arg.parse
    [
      ("--scale", Arg.Set_float scale, "F  workload scale factor (default 1.0)");
      ("--out", Arg.Set_string out, "PATH  output JSON path (default BENCH_scale1.json)");
      ("--workloads", Arg.String (csv wl), "CSV  restrict to these workload names");
      ("--techniques", Arg.String (csv tq), "CSV  restrict to these technique names");
      ( "--golden",
        Arg.String (fun p -> golden := Some p),
        "PATH  fail unless every cell's digest equals its stats_digest in PATH" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (!scale, !out, !wl, !tq, !golden)

let keep filter name =
  filter = [] || List.mem (String.lowercase_ascii name) filter

(* job name -> stats_digest, from a previous output of this tool. *)
let load_golden path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let jobs =
    match O.Json.of_string text with
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
    | Ok j -> Option.bind (O.Json.member "jobs" j) O.Json.list_opt
  in
  List.filter_map
    (fun j ->
      match
        ( Option.bind (O.Json.member "job" j) O.Json.string_opt,
          Option.bind (O.Json.member "stats_digest" j) O.Json.string_opt )
      with
      | Some job, Some d -> Some (job, d)
      | _ -> None)
    (Option.value jobs ~default:[])

let golden = Option.map load_golden golden_path

type cell = {
  job : string;
  instrs : int;
  cycles : float;
  dedup : float;
  wall_s : float;
  kernel_s : float;  (* the iteration loop: emission + replay *)
  digest : string;
  verdict : string;  (* "ok", "DIGEST DIFFERS", "NO GOLDEN" or "" *)
}

let now = Unix.gettimeofday

(* One complete sweep-cell job. The workload's [run_iteration] is wrapped
   to time the loop alone; [wall_s] adds the build and the result hash. *)
let cell (w : W.Workload.t) technique =
  let job =
    Printf.sprintf "%s/%s" (W.Registry.qualified_name w)
      (R.Technique.name technique)
  in
  Printf.printf "%-24s ...%!" job;
  let kernel_s = ref 0. and rt = ref None in
  let build p =
    let inst = w.W.Workload.build p in
    rt := Some inst.W.Workload.rt;
    {
      inst with
      W.Workload.run_iteration =
        (fun i ->
          let t0 = now () in
          inst.W.Workload.run_iteration i;
          kernel_s := !kernel_s +. (now () -. t0));
    }
  in
  let params = { (W.Workload.default_params technique) with scale } in
  let t0 = now () in
  let run = W.Harness.run { w with W.Workload.build } params in
  let wall_s = now () -. t0 in
  let digest = W.Harness.digest run in
  let verdict =
    match golden with
    | None -> ""
    | Some g -> (
      match List.assoc_opt job g with
      | None -> "NO GOLDEN"
      | Some d -> if d = digest then "ok" else "DIGEST DIFFERS")
  in
  let c =
    {
      job;
      instrs = G.Stats.total_instructions run.W.Harness.stats;
      cycles = run.W.Harness.cycles;
      dedup = G.Device.dedup_ratio (R.Runtime.device (Option.get !rt));
      wall_s;
      kernel_s = !kernel_s;
      digest;
      verdict;
    }
  in
  Printf.printf "\r%-24s %11d %8.2f %8.2f %6.1fx %s %s\n%!" job c.instrs
    c.wall_s c.kernel_s c.dedup digest verdict;
  c

let minstr instrs wall = float_of_int instrs /. wall /. 1e6

let cell_json c =
  O.Json.Obj
    [
      ("job", O.Json.String c.job);
      ("instructions", O.Json.Int c.instrs);
      ("cycles", O.Json.Float c.cycles);
      ("dedup_ratio", O.Json.Float c.dedup);
      ("wall_s", O.Json.Float c.wall_s);
      ("kernel_s", O.Json.Float c.kernel_s);
      ("minstr_per_s", O.Json.Float (minstr c.instrs c.wall_s));
      ("kernel_minstr_per_s", O.Json.Float (minstr c.instrs c.kernel_s));
      ("stats_digest", O.Json.String c.digest);
    ]

let () =
  Printf.printf "scale_bench: scale=%g%s\n%!" scale
    (match golden_path with None -> "" | Some p -> " golden=" ^ p);
  Printf.printf "%-24s %11s %8s %8s %7s %-32s\n" "job" "instrs" "wall(s)"
    "kern(s)" "dedup" "digest";
  let cells = ref [] in
  List.iter
    (fun (w : W.Workload.t) ->
      if keep only_workloads w.W.Workload.name then
        List.iter
          (fun t ->
            if keep only_techniques (R.Technique.name t) then
              cells := cell w t :: !cells)
          R.Technique.all_paper)
    W.Registry.all;
  let cells = List.rev !cells in
  if cells = [] then (prerr_endline "no cells selected"; exit 2);
  let wall = List.fold_left (fun a c -> a +. c.wall_s) 0. cells in
  let kernel = List.fold_left (fun a c -> a +. c.kernel_s) 0. cells in
  let instrs = List.fold_left (fun a c -> a + c.instrs) 0 cells in
  let bad = List.filter (fun c -> c.verdict <> "" && c.verdict <> "ok") cells in
  Printf.printf "aggregate: %.2f Minstr/s in %.1fs (kernel %.2f Minstr/s in %.1fs)\n%!"
    (minstr instrs wall) wall (minstr instrs kernel) kernel;
  let json =
    O.Json.Obj
      [
        ("scale", O.Json.Float scale);
        ( "aggregate",
          O.Json.Obj
            [
              ("instructions", O.Json.Int instrs);
              ("wall_s", O.Json.Float wall);
              ("kernel_s", O.Json.Float kernel);
              ("minstr_per_s", O.Json.Float (minstr instrs wall));
              ("kernel_minstr_per_s", O.Json.Float (minstr instrs kernel));
            ] );
        ("jobs", O.Json.List (List.map cell_json cells));
      ]
  in
  let oc = open_out out_path in
  output_string oc (O.Json.to_string ~pretty:true json);
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  match golden_path with
  | None -> ()
  | Some p ->
    if bad = [] then
      Printf.printf "all %d cell digests match %s\n%!" (List.length cells) p
    else begin
      List.iter (fun c -> Printf.printf "%s: %s\n" c.job c.verdict) bad;
      Printf.printf "%d of %d cells fail the digest gate against %s\n%!"
        (List.length bad) (List.length cells) p;
      exit 1
    end
