(* One job measured layer by layer, from outside the library: the
   workload's [build], [run_iteration] and [result] closures are wrapped
   with clocks and handed to [Harness.run], which does exactly what an
   untraced job does. With [~retain], the device keeps every launch's
   traces; they are then re-timed offline through [Sm.run_fused] on a
   fresh memory path, which must reproduce the device's [Stats] exactly
   (phase 2 reads only sealed traces and memory-path state). The fused
   loop needs a plain memory path, so callers retain only untranslated
   jobs. *)

module G = Repro_gpu
module R = Repro_core
module W = Repro_workloads
module X = Repro_exec

type replay = {
  replay_s : float;
  identical : bool;  (* offline Stats = device Stats, every counter *)
}

type t = {
  run : W.Harness.run;
  wall_s : float;       (* around Harness.run: the whole job *)
  build_s : float;      (* Workload.build: heap population *)
  kernel_s : float;     (* the run_iteration loop: emission + replay *)
  result_s : float;     (* result () plus Runtime.checksum *)
  minor_words : float;  (* allocated on this domain inside the loop *)
  sealed : int;         (* interning tallies: warp streams sealed ... *)
  unique : int;         (* ... and kept distinct *)
  replay : replay option;
}

let now = Unix.gettimeofday

let instructions (r : W.Harness.run) = G.Stats.total_instructions r.W.Harness.stats

(* The device's own fold: one [Stats.t] per launch, cycles added by the
   caller, folded into the totals in launch order. *)
let replay_offline dev =
  let cfg = G.Device.config dev in
  let mp = G.Mem_path.create cfg in
  let total = G.Stats.create () in
  let t0 = now () in
  List.iter
    (fun traces ->
      let launch = G.Stats.create () in
      G.Stats.add_cycles launch (G.Sm.run_fused cfg mp ~stats:launch ~traces);
      G.Stats.add total launch)
    (G.Device.retained_traces dev);
  (now () -. t0, total)

let matches total (r : W.Harness.run) =
  G.Stats.to_raw total = G.Stats.to_raw r.W.Harness.stats

let measure ?(retain = false) (job : X.Job.t) =
  let w = job.X.Job.workload in
  let build_s = ref 0. and kernel_s = ref 0. and result_s = ref 0. in
  let words = ref 0. and rt = ref None in
  let build p =
    let t0 = now () in
    let inst = w.W.Workload.build p in
    build_s := now () -. t0;
    rt := Some inst.W.Workload.rt;
    if retain then G.Device.retain_traces (R.Runtime.device inst.W.Workload.rt) true;
    {
      inst with
      W.Workload.run_iteration =
        (fun i ->
          let w0 = Gc.minor_words () in
          let t0 = now () in
          inst.W.Workload.run_iteration i;
          kernel_s := !kernel_s +. (now () -. t0);
          words := !words +. (Gc.minor_words () -. w0));
      result =
        (fun () ->
          let t0 = now () in
          let r = inst.W.Workload.result () in
          result_s := !result_s +. (now () -. t0);
          r);
    }
  in
  let t0 = now () in
  let run = W.Harness.run { w with W.Workload.build } job.X.Job.params in
  let wall_s = now () -. t0 in
  let rt = Option.get !rt in
  (* Harness.run hashes the heap once inside the job; time the same hash
     again to charge it to the result layer. *)
  let t0 = now () in
  let checksum = R.Runtime.checksum rt in
  let checksum_s = now () -. t0 in
  if checksum <> run.W.Harness.checksum then failwith "Cell: heap checksum changed";
  let dev = R.Runtime.device rt in
  let sealed, unique, _, _ = G.Device.interning_tallies dev in
  let replay =
    if not retain then None
    else begin
      let replay_s, total = replay_offline dev in
      G.Device.retain_traces dev false;
      Some { replay_s; identical = matches total run }
    end
  in
  {
    run; wall_s; build_s = !build_s; kernel_s = !kernel_s;
    result_s = !result_s +. checksum_s; minor_words = !words; sealed; unique;
    replay;
  }

(* Per-layer sums over many measured jobs. [replayed_*] cover only jobs
   that were re-timed offline; emission is their loop time minus their
   replay time. *)
type sums = {
  mutable jobs : int;
  mutable wall : float;
  mutable build : float;
  mutable kernel : float;
  mutable result : float;
  mutable replayed_kernel : float;
  mutable replay : float;
  mutable replayed_instrs : int;
  mutable replayed_words : float;
  mutable diverged : int;
  mutable sealed_streams : int;
  mutable unique_streams : int;
  stats : G.Stats.t;  (* simulated counters of every job, summed *)
}

let sums () =
  { jobs = 0; wall = 0.; build = 0.; kernel = 0.; result = 0.;
    replayed_kernel = 0.; replay = 0.; replayed_instrs = 0;
    replayed_words = 0.; diverged = 0; sealed_streams = 0; unique_streams = 0;
    stats = G.Stats.create () }

let add s c =
  let instrs = instructions c.run in
  s.jobs <- s.jobs + 1;
  s.wall <- s.wall +. c.wall_s;
  s.build <- s.build +. c.build_s;
  s.kernel <- s.kernel +. c.kernel_s;
  s.result <- s.result +. c.result_s;
  s.sealed_streams <- s.sealed_streams + c.sealed;
  s.unique_streams <- s.unique_streams + c.unique;
  G.Stats.add s.stats c.run.W.Harness.stats;
  match c.replay with
  | None -> ()
  | Some r ->
    s.replayed_kernel <- s.replayed_kernel +. c.kernel_s;
    s.replay <- s.replay +. r.replay_s;
    s.replayed_instrs <- s.replayed_instrs + instrs;
    s.replayed_words <- s.replayed_words +. c.minor_words;
    if not r.identical then s.diverged <- s.diverged + 1

let ratio a b = if b = 0. then 0. else a /. b

let emit_s s = s.replayed_kernel -. s.replay

let dedup_ratio s =
  ratio (float_of_int s.sealed_streams) (float_of_int s.unique_streams)

(* The layer metrics every traced workload reports, in BENCHMARK.json's
   order. [twin], when given, is the untranslated pass over the same
   cells as the translated pass [s]: emission and replay come from the
   twin's offline replays, and [vm.extra_s] is the translated minus the
   untranslated loop time. The layers then account for a job as
   build + emit + replay + vm + result. *)
let vm_extra_s ?twin s =
  match twin with None -> 0. | Some t -> s.kernel -. t.kernel

let layer_metrics ?twin s =
  let r = Option.value twin ~default:s in
  let st = s.stats in
  [
    ("core.build_s", s.build, "s");
    ("core.result_s", s.result, "s");
    ("gpu.emit_s", emit_s r, "s");
    ("gpu.replay_s", r.replay, "s");
    ( "gpu.replay_minstr_per_s",
      ratio (float_of_int r.replayed_instrs) r.replay /. 1e6, "Minstr/s" );
    ( "gpu.emit_minor_words_per_instr",
      ratio r.replayed_words (float_of_int r.replayed_instrs), "words/instr" );
    ("gpu.dedup_ratio", dedup_ratio r, "ratio");
    ("vm.extra_s", vm_extra_s ?twin s, "s");
    ("gpu.warp_instrs", float_of_int (G.Stats.total_instructions st), "count");
    ("gpu.cycles", G.Stats.cycles st, "cycles");
    ( "gpu.l1_hit_rate",
      ratio (float_of_int (G.Stats.l1_hits st)) (float_of_int (G.Stats.l1_accesses st)),
      "ratio" );
    ( "gpu.l2_hit_rate",
      ratio (float_of_int (G.Stats.l2_hits st))
        (float_of_int (G.Stats.l2_hits st + G.Stats.l2_misses st)),
      "ratio" );
    ("gpu.dram_sectors", float_of_int (G.Stats.dram_sectors st), "count");
    ("vm.tlb_lookups", float_of_int (G.Stats.tlb_lookups st), "count");
    ("vm.tlb_walks", float_of_int (G.Stats.tlb_walks st), "count");
    ("vm.walk_cycles", G.Stats.tlb_walk_cycles st, "cycles");
    ( "obs.accounted_frac",
      ratio (s.build +. emit_s r +. r.replay +. vm_extra_s ?twin s +. s.result) s.wall,
      "ratio" );
  ]

let digest (r : W.Harness.run) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (G.Stats.to_raw r.W.Harness.stats, r.W.Harness.checksum, r.W.Harness.result)
          []))
