(* The event-driven warp scheduler, written as one zero-allocation replay
   loop. This build has no flambda, so every cross-module call on the
   per-instruction path would be a real call; the loop therefore hoists
   trace columns, cache tag state, memory-path clocks and the telemetry
   sinks into locals once per launch and walks the L1 -> L2 -> DRAM
   hierarchy inline over them:

   - memory records read their coalesced sectors straight out of the
     sealed trace ([Trace.Intern.seal] ran the coalescer once, at the
     end of emission), so the walk is a slice of one int array;
   - the event heap is a local replace-top heap: every pop is followed
     by at most one push (the re-issue or an activation), which a
     pop-then-push pair services with a single root sift. Pop order is
     the lexicographic (key, insertion sequence) minimum, so equal-time
     warps come out FIFO;
   - int counters (instruction classes, transactions, hits, DRAM sectors,
     TLB outcomes) accumulate in locals and flush through
     [Stats.bump_replay_counters] once per launch, or at each sampling
     window boundary; integer adds are exact, so the totals match
     per-instruction counting bit for bit. Float counters (stalls, TLB
     walk cycles) are added per event, in event order, into the open
     row;
   - translation and telemetry are matched once per launch into locals.
     Without a translation model the per-sector delay [tx] is exactly
     [0.], and [t +. 0. = t] on this domain, so one walk serves both
     cases. Without a sampler the boundary cell holds [infinity]; without
     a ring the event writes are skipped. Recording is direct int and
     float-array stores, so it never boxes.

   Nothing on the per-instruction path builds a record, option, closure
   or boxed float; the only allocations are per launch (hoisted column
   arrays, the heap) and per window boundary. *)

(* Write one event at the ring head by direct stores; [abs_ts] already
   includes the launch base. Inlined, so the float arguments stay in
   registers. [head] < capacity always (Ring.bump wraps it), and the six
   arrays share that capacity, so the unsafe stores are in bounds. *)
let[@inline] emit_abs r kind track a b abs_ts dur =
  let i = r.Telemetry.Ring.head in
  Array.unsafe_set r.Telemetry.Ring.kind i kind;
  Array.unsafe_set r.Telemetry.Ring.track i track;
  Array.unsafe_set r.Telemetry.Ring.arg_a i a;
  Array.unsafe_set r.Telemetry.Ring.arg_b i b;
  Array.unsafe_set r.Telemetry.Ring.ts i abs_ts;
  Array.unsafe_set r.Telemetry.Ring.dur i dur;
  let e = abs_ts +. dur in
  if e > Array.unsafe_get r.Telemetry.Ring.cells 1 then
    Array.unsafe_set r.Telemetry.Ring.cells 1 e;
  Telemetry.Ring.bump r

(* A memory-system event at launch-relative time [ts]. *)
let[@inline] emit r kind track a b ts dur =
  emit_abs r kind track a b (Array.unsafe_get r.Telemetry.Ring.cells 0 +. ts) dur

(* One sector's address translation, issued at [t0]: the lookup code
   indexes [vm_lat] (0 on an L1 TLB hit) and the returned delay pushes
   the sector's first cache arbitration. [tlb] counts L1 hits, L2 hits
   and walks; [walk.(0)] is the open row's running walk-cycle total.
   [0.] when no model is attached. A sector on the page this SM's L1 TLB
   touched last ([vm_lo]/[vm_hi], the model's page memo) is that lookup's
   L1 hit, counted here without the call. *)
let[@inline] translate vm vm_lo vm_hi vm_lat tlb walk ring sm sector t0 =
  match vm with
  | None -> 0.
  | Some v ->
    if
      sector >= Array.unsafe_get vm_lo sm
      && sector < Array.unsafe_get vm_hi sm
    then begin
      Array.unsafe_set tlb 0 (Array.unsafe_get tlb 0 + 1);
      Array.unsafe_get vm_lat 0
    end
    else begin
      let code = Repro_vm.Vm.lookup v ~sm ~sector in
      let tx = Array.unsafe_get vm_lat code in
      if code < 2 then
        Array.unsafe_set tlb code (Array.unsafe_get tlb code + 1)
      else begin
        Array.unsafe_set tlb 2 (Array.unsafe_get tlb 2 + 1);
        Array.unsafe_set walk 0 (Array.unsafe_get walk 0 +. tx);
        match ring with
        | Some r -> emit r Telemetry.Ring.kind_tlb sm (code - 2) sector t0 tx
        | None -> ()
      end;
      tx
    end

let run_fused ?telemetry (cfg : Config.t) mem_path ~stats ~traces =
  Config.validate cfg;
  let n_warps = Array.length traces in
  if n_warps = 0 then 0.
  else begin
    Mem_path.begin_kernel mem_path;
    let n_sms = cfg.n_sms in
    let issue_clock = Array.make n_sms 0. in
    let pcs = Array.make n_warps 0 in
    (* Per-warp trace columns, hoisted. [lens] is the logical length, so
       an in-bounds [pc] indexes every column safely (unsafe gets). *)
    let lens = Array.map Trace.length traces in
    let ops = Array.map Trace.Raw.op_col traces in
    let lbls = Array.map Trace.Raw.lbl_col traces in
    let reps = Array.map Trace.Raw.rep_col traces in
    let blks = Array.map Trace.Raw.blk_col traces in
    let soffs = Array.map Trace.Raw.sector_off_col traces in
    let secs = Array.map Trace.Raw.sector_col traces in
    (* Memory-path state and precomputed costs, hoisted. *)
    let l1_next_free = Mem_path.Raw.l1_next_free mem_path in
    let lsu_next_free = Mem_path.Raw.lsu_next_free mem_path in
    let clk = Mem_path.Raw.clk mem_path in
    let inv_l1_tp = Mem_path.Raw.inv_l1_tp mem_path in
    let inv_l2_tp = Mem_path.Raw.inv_l2_tp mem_path in
    let inv_lsu_tp = Mem_path.Raw.inv_lsu_tp mem_path in
    let inv_dram_cost = Mem_path.Raw.inv_dram_cost mem_path in
    let dram_pair_cost = Mem_path.Raw.dram_pair_cost mem_path in
    let l1_lat = Mem_path.Raw.l1_lat mem_path in
    let l2_lat = Mem_path.Raw.l2_lat mem_path in
    let dram_lat = Mem_path.Raw.dram_lat mem_path in
    let n_over_l1 = Mem_path.Raw.n_over_l1 mem_path in
    let vm = Mem_path.vm mem_path in
    let vm_lat = Mem_path.Raw.vm_lat mem_path in
    let vm_lo, vm_hi =
      match vm with
      | Some v -> (Repro_vm.Vm.Raw.memo_lo v, Repro_vm.Vm.Raw.memo_hi v)
      | None -> ([||], [||])
    in
    let l1s = Mem_path.Raw.l1s mem_path in
    let l1_tags = Array.map Cache.Raw.tags l1s in
    let l1_valid = Array.map Cache.Raw.valid l1s in
    let l1_stamps = Array.map Cache.Raw.stamps l1s in
    let l1_clock = Array.map Cache.Raw.clock_cell l1s in
    let l1_ways = Cache.Raw.ways l1s.(0) in
    let l1_sshift = Cache.Raw.sector_shift l1s.(0) in
    let l1_smask = Cache.Raw.sector_mask l1s.(0) in
    let l1_setmask = Cache.Raw.set_mask l1s.(0) in
    let l2 = Mem_path.Raw.l2 mem_path in
    let l2_tags = Cache.Raw.tags l2 in
    let l2_valid = Cache.Raw.valid l2 in
    let l2_stamps = Cache.Raw.stamps l2 in
    let l2_clock = Cache.Raw.clock_cell l2 in
    let l2_ways = Cache.Raw.ways l2 in
    let l2_sshift = Cache.Raw.sector_shift l2 in
    let l2_smask = Cache.Raw.sector_mask l2 in
    let l2_setmask = Cache.Raw.set_mask l2 in
    (* Telemetry sinks. With sampling on, counters flow into the open
       window's row: [cur] and its accumulators are rebound at each
       boundary crossing (pointer stores, no allocation). *)
    let ring, sampler =
      match telemetry with
      | Some tel -> (tel.Telemetry.ring, tel.Telemetry.sampler)
      | None -> (None, None)
    in
    let bcell =
      match sampler with
      | Some s -> Telemetry.Sampler.boundary_cell s
      | None -> [| infinity |]
    in
    let cur =
      ref (match sampler with Some s -> Telemetry.Sampler.current s | None -> stats)
    in
    let stalls = ref (Stats.stall_accumulator !cur) in
    let ld_by_lbl = ref (Stats.load_transactions_accumulator !cur) in
    let walk = [| Stats.tlb_walk_cycles !cur |] in
    let tlb = Array.make 3 0 in
    let n_mem = ref 0 and n_comp = ref 0 and n_ctrl = ref 0 in
    let ld_tr = ref 0 and st_tr = ref 0 in
    let l1h = ref 0 and l1m = ref 0 and l2h = ref 0 and l2m = ref 0 in
    let dram = ref 0 in
    (* Load completion time and kernel finish time, as float cells. *)
    let compl_ = Array.make 1 0. in
    let finish = Array.make 1 0. in
    (* The replace-top heap. Capacity [n_warps] suffices: every pop is
       followed by at most one push, and the initial activations push at
       most one entry per warp. 4-ary with a hole sift (save the root
       entry, pull min-children up, place once). *)
    let hkeys = Array.make n_warps 0. in
    let hseqs = Array.make n_warps 0 in
    let hvals = Array.make n_warps 0 in
    let hlen = ref 0 in
    let hseq = ref 0 in
    let sift_down_root () =
      let n = !hlen in
      let k = Array.unsafe_get hkeys 0 in
      let q = Array.unsafe_get hseqs 0 in
      let v = Array.unsafe_get hvals 0 in
      let i = ref 0 in
      let cont = ref true in
      while !cont do
        let c0 = (4 * !i) + 1 in
        if c0 >= n then cont := false
        else begin
          let hi = if c0 + 3 < n - 1 then c0 + 3 else n - 1 in
          let s = ref c0 in
          for c = c0 + 1 to hi do
            if
              Array.unsafe_get hkeys c < Array.unsafe_get hkeys !s
              || (Array.unsafe_get hkeys c = Array.unsafe_get hkeys !s
                  && Array.unsafe_get hseqs c < Array.unsafe_get hseqs !s)
            then s := c
          done;
          let sk = Array.unsafe_get hkeys !s in
          if sk < k || (sk = k && Array.unsafe_get hseqs !s < q) then begin
            Array.unsafe_set hkeys !i sk;
            Array.unsafe_set hseqs !i (Array.unsafe_get hseqs !s);
            Array.unsafe_set hvals !i (Array.unsafe_get hvals !s);
            i := !s
          end
          else cont := false
        end
      done;
      Array.unsafe_set hkeys !i k;
      Array.unsafe_set hseqs !i q;
      Array.unsafe_set hvals !i v
    in
    (* Warps are dealt round-robin to SMs; each SM activates its first
       [max_warps_per_sm] immediately and queues the rest. The initial
       pushes all carry key 0 with ascending seqs, so appending in order
       already satisfies the heap invariant. *)
    let pending = Array.make n_sms ([] : int list) in
    for i = n_warps - 1 downto 0 do
      let sm = i mod n_sms in
      pending.(sm) <- i :: pending.(sm)
    done;
    for sm = 0 to n_sms - 1 do
      for _ = 1 to cfg.max_warps_per_sm do
        match pending.(sm) with
        | [] -> ()
        | w :: rest ->
          pending.(sm) <- rest;
          hkeys.(!hlen) <- 0.;
          hseqs.(!hlen) <- !hseq;
          hvals.(!hlen) <- w;
          incr hseq;
          incr hlen
      done
    done;
    let issue_cost = 1. /. float_of_int cfg.issue_width in
    let ctrl_lat = float_of_int cfg.ctrl_latency in
    let const_lat = float_of_int cfg.const_latency in
    let call_ind_lat = float_of_int cfg.call_indirect_latency in
    let call_dir_lat = float_of_int cfg.call_direct_latency in
    let compute_latency = cfg.compute_latency in
    while !hlen > 0 do
      let ready = hkeys.(0) in
      (if ready >= bcell.(0) then
         match sampler with
         | Some s ->
           (* Window boundary: close the open row's integer counters,
              then count into the row [ready] falls in. *)
           Stats.bump_replay_counters !cur ~mem:!n_mem ~compute:!n_comp
             ~ctrl:!n_ctrl ~load_trans:!ld_tr ~store_trans:!st_tr
             ~l1_hits:!l1h ~l1_misses:!l1m ~l2_hits:!l2h ~l2_misses:!l2m
             ~dram_sectors:!dram ~tlb_l1_hits:tlb.(0) ~tlb_l2_hits:tlb.(1)
             ~tlb_walks:tlb.(2) ~tlb_walk_cycles_total:walk.(0);
           n_mem := 0; n_comp := 0; n_ctrl := 0; ld_tr := 0; st_tr := 0;
           l1h := 0; l1m := 0; l2h := 0; l2m := 0; dram := 0;
           Array.fill tlb 0 3 0;
           Telemetry.Sampler.advance s ~now:ready;
           let row = Telemetry.Sampler.current s in
           cur := row;
           stalls := Stats.stall_accumulator row;
           ld_by_lbl := Stats.load_transactions_accumulator row;
           walk.(0) <- Stats.tlb_walk_cycles row
         | None -> ());
      let w = hvals.(0) in
      let sm = w mod n_sms in
      let pc = Array.unsafe_get pcs w in
      if pc >= Array.unsafe_get lens w then begin
        (* Warp retires; replace the root with the activated warp, or
           shrink the heap when this SM has no warp pending. *)
        if ready > finish.(0) then finish.(0) <- ready;
        match pending.(sm) with
        | [] ->
          let n = !hlen - 1 in
          hlen := n;
          if n > 0 then begin
            hkeys.(0) <- hkeys.(n);
            hseqs.(0) <- hseqs.(n);
            hvals.(0) <- hvals.(n);
            sift_down_root ()
          end
        | w' :: rest ->
          pending.(sm) <- rest;
          hkeys.(0) <- ready;
          hseqs.(0) <- !hseq;
          hvals.(0) <- w';
          incr hseq;
          sift_down_root ()
      end
      else begin
        Array.unsafe_set pcs w (pc + 1);
        let op = Array.unsafe_get (Array.unsafe_get ops w) pc in
        let lbl = Array.unsafe_get (Array.unsafe_get lbls w) pc in
        let rep = Array.unsafe_get (Array.unsafe_get reps w) pc in
        if op = Trace.op_compute then n_comp := !n_comp + rep
        else if op = Trace.op_ctrl || op >= Trace.op_call_indirect then
          n_ctrl := !n_ctrl + rep
        else n_mem := !n_mem + rep;
        let ic = Array.unsafe_get issue_clock sm in
        let issue_time = if ready >= ic then ready else ic in
        let slots = float_of_int rep *. issue_cost in
        Array.unsafe_set issue_clock sm (issue_time +. slots);
        let next_ready =
          if op = Trace.op_load then begin
            let sec = Array.unsafe_get secs w in
            let so = Array.unsafe_get soffs w in
            let off = Array.unsafe_get so pc in
            let n = Array.unsafe_get so (pc + 1) - off in
            ld_tr := !ld_tr + n;
            let lb = !ld_by_lbl in
            lb.(lbl) <- lb.(lbl) + n;
            (* LSU acceptance: the access starts no earlier than the SM's
               LSU is free and occupies it for max(issue slot, sector
               drain). *)
            let lf = Array.unsafe_get lsu_next_free sm in
            let t0 = if issue_time >= lf then issue_time else lf in
            let occ = Array.unsafe_get n_over_l1 n in
            Array.unsafe_set lsu_next_free sm
              (t0 +. if inv_lsu_tp >= occ then inv_lsu_tp else occ);
            compl_.(0) <- t0;
            let l1t = Array.unsafe_get l1_tags sm in
            let l1v = Array.unsafe_get l1_valid sm in
            let l1st = Array.unsafe_get l1_stamps sm in
            let l1ck = Array.unsafe_get l1_clock sm in
            for i = 0 to n - 1 do
              (* One sector through the hierarchy: bandwidth reservation
                 at each level it reaches, cumulative latency down to the
                 level that hits; the completion time folds into
                 [compl_] by replace-if-greater. *)
              let sector = Array.unsafe_get sec (off + i) in
              let a =
                t0 +. translate vm vm_lo vm_hi vm_lat tlb walk ring sm sector t0
              in
              let lnf = Array.unsafe_get l1_next_free sm in
              let t1 = if a >= lnf then a else lnf in
              Array.unsafe_set l1_next_free sm (t1 +. inv_l1_tp);
              if
                Cache.Raw.access l1t l1v l1st l1ck l1_ways l1_sshift l1_smask
                  l1_setmask sector
              then begin
                incr l1h;
                (match ring with
                 | Some r -> emit r Telemetry.Ring.kind_l1 sm 1 sector t1 l1_lat
                 | None -> ());
                let c = t1 +. l1_lat in
                if c > compl_.(0) then compl_.(0) <- c
              end
              else begin
                incr l1m;
                (match ring with
                 | Some r -> emit r Telemetry.Ring.kind_l1 sm 0 sector t1 0.
                 | None -> ());
                let a = t1 +. l1_lat in
                let t2 = if a >= clk.(0) then a else clk.(0) in
                clk.(0) <- t2 +. inv_l2_tp;
                if
                  Cache.Raw.access l2_tags l2_valid l2_stamps l2_clock l2_ways
                    l2_sshift l2_smask l2_setmask sector
                then begin
                  incr l2h;
                  (match ring with
                   | Some r -> emit r Telemetry.Ring.kind_l2 sm 1 sector t2 l2_lat
                   | None -> ());
                  let c = t2 +. l2_lat in
                  if c > compl_.(0) then compl_.(0) <- c
                end
                else begin
                  incr l2m;
                  (match ring with
                   | Some r -> emit r Telemetry.Ring.kind_l2 sm 0 sector t2 0.
                   | None -> ());
                  (* DRAM is accessed at 64 B granularity (Volta's L2 fill
                     size): the missing sector and its pair are both
                     fetched and installed. Padded or scattered objects
                     waste the pair half; packed objects find their
                     neighbour in it — a first-order reason type-based
                     packing wins (Sec. 8.2). *)
                  dram := !dram + 2;
                  ignore
                    (Cache.Raw.access l2_tags l2_valid l2_stamps l2_clock
                       l2_ways l2_sshift l2_smask l2_setmask (sector lxor 1));
                  let b = t2 +. l2_lat in
                  let t3 = if b >= clk.(1) then b else clk.(1) in
                  clk.(1) <- t3 +. dram_pair_cost;
                  (match ring with
                   | Some r -> emit r Telemetry.Ring.kind_dram sm 2 sector t3 dram_lat
                   | None -> ());
                  let c = t3 +. dram_lat in
                  if c > compl_.(0) then compl_.(0) <- c
                end
              end
            done;
            if Array.unsafe_get (Array.unsafe_get blks w) pc <> 0 then
              compl_.(0)
            else issue_time +. slots
          end
          else if op = Trace.op_store then begin
            let sec = Array.unsafe_get secs w in
            let so = Array.unsafe_get soffs w in
            let off = Array.unsafe_get so pc in
            let n = Array.unsafe_get so (pc + 1) - off in
            st_tr := !st_tr + n;
            let lf = Array.unsafe_get lsu_next_free sm in
            let t0 = if issue_time >= lf then issue_time else lf in
            let occ = Array.unsafe_get n_over_l1 n in
            Array.unsafe_set lsu_next_free sm
              (t0 +. if inv_lsu_tp >= occ then inv_lsu_tp else occ);
            for i = 0 to n - 1 do
              (* Write-through: every store sector consumes L2 bandwidth
                 and is installed there; an L2 miss also consumes DRAM
                 bandwidth. A sector cannot reach L2 before its page
                 translates. Store events are instants (dur 0): the warp
                 does not wait on them, and the DRAM drain can outlive the
                 kernel's last warp. *)
              let sector = Array.unsafe_get sec (off + i) in
              let a =
                t0 +. translate vm vm_lo vm_hi vm_lat tlb walk ring sm sector t0
              in
              let t2 = if a >= clk.(0) then a else clk.(0) in
              clk.(0) <- t2 +. inv_l2_tp;
              if
                Cache.Raw.access l2_tags l2_valid l2_stamps l2_clock l2_ways
                  l2_sshift l2_smask l2_setmask sector
              then
                match ring with
                | Some r -> emit r Telemetry.Ring.kind_l2 sm 3 sector t2 0.
                | None -> ()
              else begin
                (match ring with
                 | Some r -> emit r Telemetry.Ring.kind_l2 sm 2 sector t2 0.
                 | None -> ());
                incr dram;
                let t3 = if t2 >= clk.(1) then t2 else clk.(1) in
                clk.(1) <- t3 +. inv_dram_cost;
                match ring with
                | Some r -> emit r Telemetry.Ring.kind_dram sm 1 sector t3 0.
                | None -> ()
              end
            done;
            issue_time +. slots
          end
          else if op = Trace.op_compute then
            if Array.unsafe_get (Array.unsafe_get blks w) pc <> 0 then
              (* A dependent ALU chain: each op waits on the previous. *)
              issue_time +. float_of_int (rep * compute_latency)
            else issue_time +. slots
          else if op = Trace.op_ctrl then issue_time +. ctrl_lat
          else if op = Trace.op_const_load then issue_time +. const_lat
          else if op = Trace.op_call_indirect then issue_time +. call_ind_lat
          else issue_time +. call_dir_lat
        in
        let stall = next_ready -. issue_time -. slots in
        if stall > 0. then begin
          let sa = !stalls in
          sa.(lbl) <- sa.(lbl) +. stall;
          match ring with
          | Some r ->
            emit_abs r Telemetry.Ring.kind_stall sm lbl w
              (r.Telemetry.Ring.cells.(0) +. issue_time +. slots) stall
          | None -> ()
        end;
        hkeys.(0) <- next_ready;
        hseqs.(0) <- !hseq;
        incr hseq;
        sift_down_root ()
      end
    done;
    Stats.bump_replay_counters !cur ~mem:!n_mem ~compute:!n_comp
      ~ctrl:!n_ctrl ~load_trans:!ld_tr ~store_trans:!st_tr ~l1_hits:!l1h
      ~l1_misses:!l1m ~l2_hits:!l2h ~l2_misses:!l2m ~dram_sectors:!dram
      ~tlb_l1_hits:tlb.(0) ~tlb_l2_hits:tlb.(1) ~tlb_walks:tlb.(2)
      ~tlb_walk_cycles_total:walk.(0);
    finish.(0)
  end
