(* Host memory high-water mark of this process, from /proc/self. [reset]
   restarts the mark at the current resident size (clear_refs 5), so a
   phase's peak can be read on its own; where the kernel refuses, the
   mark keeps counting from process start, which only overstates. *)

let peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let reset () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()
