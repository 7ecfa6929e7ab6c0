(* A boxed view of SoA traces for tests: decompose an [Instr.t] into the
   trace's emit calls, and materialize records back (allocating fresh
   payload copies). Not for the replay path. *)

module Trace = Repro_gpu.Trace
module Instr = Repro_gpu.Instr
module Label = Repro_gpu.Label

let get t i : Instr.t =
  let label = Label.of_index (Trace.label_index t i) in
  let active = Trace.active t i in
  let payload () = Array.sub (Trace.arena t) (Trace.addr_off t i) active in
  let op = Trace.op t i in
  let kind : Instr.kind =
    if op = Trace.op_load then Instr.Load (payload ())
    else if op = Trace.op_store then Instr.Store (payload ())
    else if op = Trace.op_compute then Instr.Compute (Trace.repeat t i)
    else if op = Trace.op_ctrl then Instr.Ctrl (Trace.repeat t i)
    else if op = Trace.op_const_load then Instr.Const_load
    else if op = Trace.op_call_indirect then Instr.Call_indirect
    else Instr.Call_direct
  in
  { Instr.label; kind; blocking = Trace.is_blocking t i; active }

let emit t (i : Instr.t) =
  let label = i.Instr.label and active = i.Instr.active in
  match i.Instr.kind with
  | Instr.Load addrs ->
    ignore (Trace.emit_load t ~label ~blocking:i.Instr.blocking addrs)
  | Instr.Store addrs -> ignore (Trace.emit_store t ~label addrs)
  | Instr.Compute n ->
    Trace.emit_compute t ~label ~n ~blocking:i.Instr.blocking ~active
  | Instr.Ctrl n -> Trace.emit_ctrl t ~label ~n ~active
  | Instr.Const_load -> Trace.emit_const_load t ~label ~active
  | Instr.Call_indirect -> Trace.emit_call_indirect t ~label ~active
  | Instr.Call_direct -> Trace.emit_call_direct t ~label ~active

let iter f t =
  for i = 0 to Trace.length t - 1 do
    f (get t i)
  done
