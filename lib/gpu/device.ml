(* Phase 1 (emission) runs on the caller; phase 2 (replay) runs on a
   replay lane when a spare core is free, else on the caller right after
   emission. The state splits along that line:

   - the caller owns the heap, the scratch trace, the interning tallies,
     [launches], the sanitizer and the translation model to attach next;
   - the replay side ([replay] below) owns the memory path, the counters,
     the timelines, the kernel spans, retained traces and telemetry.

   Neither phase touches the other's state (the page table is read-only;
   the TLB model and the sanitizer each own a lookup cursor into it), so
   launch k can replay while launch k+1 emits. Each hand-off carries
   what replay needs from the caller's side at emission time (traces,
   launch index, sanitizer delta, translation model), and the lane
   replays items in launch order, so every counter, row and event is the
   same as replaying inline. Every reader of replay state drains the
   lane first. *)

type replay = {
  mem_path : Mem_path.t;
  stats : Stats.t;
  tel : Telemetry.t option;
  mutable timeline : Stats.t list; (* per-launch deltas, newest first *)
  mutable windows : Stats.t array list; (* per-launch window rows, newest first *)
  mutable spans : Telemetry.kernel_span list; (* newest first *)
  mutable keep_traces : bool;
  mutable kept : Trace.sealed array list; (* retained launches, newest first *)
}

(* One emitted launch on its way to replay. *)
type item = {
  traces : Trace.sealed array;
  index : int;
  san_delta : int array option;
  vm : Repro_vm.Vm.t option;
}

(* The hand-off to the replay lane, guarded by [m]. [running] is true
   while a lane domain is alive; it holds one spare-core token, exits
   once [waiting] is empty and gives the token back on its way out. *)
type lane = {
  m : Mutex.t;
  changed : Condition.t;
  mutable waiting : item option; (* at most one launch behind the replaying one *)
  mutable running : bool;
  mutable domain : unit Domain.t option;
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

type t = {
  cfg : Config.t;
  heap : Repro_mem.Page_store.t;
  scratch : Trace.t; (* reusable emission trace, sealed per warp *)
  slab : Slab.t; (* the bodies' value arrays, released per warp *)
  san : Repro_san.Checker.t option;
  mutable vm : Repro_vm.Vm.t option;
  mutable launches : int;
  mutable sealed_streams : int; (* interning tallies, cumulative *)
  mutable unique_streams : int;
  mutable sealed_stream_instrs : int;
  mutable unique_stream_instrs : int;
  r : replay;
  lane : lane;
}

let fmax (a : float) (b : float) = if a >= b then a else b

let create ?(config = Config.default) ?san
    ?telemetry ~heap () =
  Config.validate config;
  let tel =
    match telemetry with
    | Some c when Telemetry.config_enabled c -> Some (Telemetry.create c)
    | Some _ | None -> None
  in
  {
    cfg = config;
    heap;
    scratch = Trace.create ~capacity:256 ();
    slab = Slab.create ();
    san;
    vm = None;
    launches = 0;
    sealed_streams = 0;
    unique_streams = 0;
    sealed_stream_instrs = 0;
    unique_stream_instrs = 0;
    r =
      {
        mem_path = Mem_path.create config;
        stats = Stats.create ();
        tel;
        timeline = [];
        windows = [];
        spans = [];
        keep_traces = false;
        kept = [];
      };
    lane =
      {
        m = Mutex.create ();
        changed = Condition.create ();
        waiting = None;
        running = false;
        domain = None;
        failure = None;
      };
  }

let config t = t.cfg

let heap t = t.heap

let set_vm t vm = t.vm <- vm

let vm t = t.vm

(* Phase 2 of one launch: everything after emission, on whichever domain
   owns the replay side. *)
let replay cfg r (item : item) =
  Mem_path.set_vm r.mem_path item.vm;
  (* Each launch counts into its own [Stats.t] which is then folded into
     the cumulative totals, so the per-kernel deltas of [kernel_timeline]
     sum (bit-for-bit, including the float counters) to [stats]. *)
  let launch_stats = Stats.create () in
  let ring, sampler =
    match r.tel with
    | Some tel -> (tel.Telemetry.ring, tel.Telemetry.sampler)
    | None -> (None, None)
  in
  (* Launches concatenate on one absolute time axis whose origin is the
     cumulative cycle count so far. *)
  let base = Stats.cycles r.stats in
  (match ring with
   | Some ring -> Telemetry.Ring.begin_launch ring ~base
   | None -> ());
  (match sampler with
   | Some sampler -> Telemetry.Sampler.begin_launch sampler
   | None -> ());
  let cycles =
    Sm.run_fused ?telemetry:r.tel cfg r.mem_path ~stats:launch_stats
      ~traces:item.traces
  in
  (match ring with
   | Some ring ->
     (* The span covers trailing write-through DRAM drain the ring may
        have recorded past the last warp's retirement. *)
     let dur = fmax cycles (Telemetry.Ring.max_end ring -. base) in
     r.spans <- { Telemetry.index = item.index; start = base; dur } :: r.spans
   | None -> ());
  (* Windowed: the loop counted into per-window rows, folded in order
     into the launch delta below — the identical association a plain run
     performs, so totals (cycles included, see [Sampler.finish_launch])
     match a telemetry-off run bit-for-bit on every integer counter and
     on cycles. *)
  let rows =
    match sampler with
    | None -> None
    | Some sampler ->
      Telemetry.Sampler.finish_launch sampler ~cycles;
      let rows = Telemetry.Sampler.take sampler in
      r.windows <- rows :: r.windows;
      Some rows
  in
  (* Launch-scoped counts with no cycle of their own (the sanitizer's
     violations from the functional phase, ring drops) go into the launch
     delta, or into its last window when sampling. *)
  let tail =
    match rows with
    | None -> launch_stats
    | Some rows -> rows.(Array.length rows - 1)
  in
  (match item.san_delta with
   | None -> ()
   | Some delta -> Stats.count_san_violations tail delta);
  (match ring with
   | Some ring -> Stats.count_trace_dropped tail (Telemetry.Ring.take_dropped ring)
   | None -> ());
  (match rows with
   | None -> Stats.add_cycles launch_stats cycles
   | Some rows -> Array.iter (fun row -> Stats.add launch_stats row) rows);
  Stats.add r.stats launch_stats;
  r.timeline <- launch_stats :: r.timeline;
  if r.keep_traces then r.kept <- item.traces :: r.kept

(* --- the replay lane ------------------------------------------------- *)

(* The lane domain: replay waiting items in order until none is left,
   then give the core back and exit. A replay failure is parked for the
   caller, and the rest of the queue is dropped with it: the replay
   state is no longer meaningful. *)
let rec lane_loop t =
  let l = t.lane in
  (* Under [l.m]: announce the exit and release the lock. *)
  let retire () =
    Repro_util.Spare_cores.give ();
    l.running <- false;
    Condition.broadcast l.changed;
    Mutex.unlock l.m
  in
  Mutex.lock l.m;
  match l.waiting with
  | None -> retire ()
  | Some item -> (
    l.waiting <- None;
    Condition.broadcast l.changed;
    Mutex.unlock l.m;
    match replay t.cfg t.r item with
    | () -> lane_loop t
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock l.m;
      l.failure <- Some (e, bt);
      l.waiting <- None;
      retire ())

(* Wait until no lane domain runs and reap it. Afterwards the caller owns
   the replay side too. Returns a parked replay failure, if any. *)
let settle t =
  let l = t.lane in
  Mutex.lock l.m;
  while l.running do
    Condition.wait l.changed l.m
  done;
  let failure = l.failure and domain = l.domain in
  l.failure <- None;
  l.domain <- None;
  Mutex.unlock l.m;
  Option.iter Domain.join domain;
  failure

let reraise = function
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Every reader of replay state goes through here. *)
let drain t = reraise (settle t)

(* Queue [item] behind the launch replaying now (waiting for the slot
   when another launch already waits), start a lane for it when none
   runs and a spare core is free, or else replay it here. A lane that
   stopped on a replay failure surfaces it here. *)
let hand_off t item =
  let l = t.lane in
  Mutex.lock l.m;
  while l.running && l.waiting <> None do
    Condition.wait l.changed l.m
  done;
  if l.running then begin
    l.waiting <- Some item;
    Condition.broadcast l.changed;
    Mutex.unlock l.m
  end
  else begin
    Mutex.unlock l.m;
    drain t;
    if Repro_util.Spare_cores.try_take () then begin
      l.waiting <- Some item;
      l.running <- true;
      match Domain.spawn (fun () -> lane_loop t) with
      | d -> l.domain <- Some d
      | exception _ ->
        (* Out of domains: replay here, as without a spare core. *)
        l.waiting <- None;
        l.running <- false;
        Repro_util.Spare_cores.give ();
        replay t.cfg t.r item
    end
    else replay t.cfg t.r item
  end

(* --- phase 1 --------------------------------------------------------- *)

let emit t ~n_threads kernel =
  let warp_size = t.cfg.Config.warp_size in
  let n_warps = Repro_util.Mathx.ceil_div n_threads warp_size in
  (* Every warp emits into the device's scratch trace, then seals
     through a per-launch pool that coalesces its memory records and
     hash-conses identical instruction streams (sectors stay per-warp). *)
  let pool = Trace.Intern.create () in
  let traces =
    Array.init n_warps (fun warp_id ->
        let first = warp_id * warp_size in
        let width = min warp_size (n_threads - first) in
        let lanes = Array.init width (fun lane -> first + lane) in
        Trace.reset t.scratch;
        (* The previous warp has ended: its value arrays are free. *)
        Slab.release t.slab;
        let ctx =
          Warp_ctx.create ?san:t.san ~trace:t.scratch ~slab:t.slab
            ~heap:t.heap ~warp_id ~lanes ()
        in
        kernel ctx;
        Trace.Intern.seal pool t.scratch)
  in
  t.sealed_streams <- t.sealed_streams + Trace.Intern.sealed pool;
  t.unique_streams <- t.unique_streams + Trace.Intern.unique pool;
  t.sealed_stream_instrs <-
    t.sealed_stream_instrs + Trace.Intern.sealed_instrs pool;
  t.unique_stream_instrs <-
    t.unique_stream_instrs + Trace.Intern.unique_instrs pool;
  traces

let launch t ~n_threads kernel =
  if n_threads <= 0 then invalid_arg "Device.launch: n_threads must be positive";
  let traces =
    try emit t ~n_threads kernel
    with e ->
      (* The launch is abandoned; let the lane finish (keeping any replay
         failure parked) so no domain or core outlives the error. *)
      let bt = Printexc.get_raw_backtrace () in
      let failure = settle t in
      t.lane.failure <- failure;
      Printexc.raise_with_backtrace e bt
  in
  let san_delta = Option.map Repro_san.Checker.take_kernel_delta t.san in
  let item = { traces; index = t.launches; san_delta; vm = t.vm } in
  t.launches <- t.launches + 1;
  hand_off t item

(* --- readers: drain first -------------------------------------------- *)

let sync = drain

let retain_traces t keep =
  drain t;
  t.r.keep_traces <- keep;
  if not keep then t.r.kept <- []

let retained_traces t =
  drain t;
  List.rev t.r.kept

let stats t =
  drain t;
  t.r.stats

let kernel_timeline t =
  drain t;
  List.rev t.r.timeline

let window_timeline t =
  drain t;
  List.rev t.r.windows

let sample_window t =
  match t.r.tel with
  | Some { Telemetry.sampler = Some s; _ } -> Some (Telemetry.Sampler.window s)
  | Some _ | None -> None

let telemetry_dump t =
  drain t;
  match t.r.tel with
  | Some ({ Telemetry.ring = Some ring; _ } as tel) ->
    Some
      {
        Telemetry.n_sms = t.cfg.Config.n_sms;
        window =
          (match tel.Telemetry.sampler with
           | Some s -> Telemetry.Sampler.window s
           | None -> 0);
        events = Telemetry.events_of_ring ring;
        kernels = List.rev t.r.spans;
        dropped = Telemetry.Ring.all_dropped ring;
      }
  | Some _ | None -> None

let interning_tallies t =
  (t.sealed_streams, t.unique_streams, t.sealed_stream_instrs,
   t.unique_stream_instrs)

let dedup_ratio t =
  if t.unique_streams = 0 then 1.
  else float_of_int t.sealed_streams /. float_of_int t.unique_streams

let reset_stats t =
  drain t;
  let r = t.r in
  (* The reset flushes the model the next launch will replay under. *)
  Mem_path.set_vm r.mem_path t.vm;
  Stats.reset r.stats;
  Mem_path.reset r.mem_path;
  t.sealed_streams <- 0;
  t.unique_streams <- 0;
  t.sealed_stream_instrs <- 0;
  t.unique_stream_instrs <- 0;
  r.timeline <- [];
  r.windows <- [];
  r.spans <- [];
  t.launches <- 0;
  r.kept <- [];
  match r.tel with
  | Some { Telemetry.ring = Some ring; _ } -> Telemetry.Ring.clear ring
  | Some _ | None -> ()

let launches t = t.launches
