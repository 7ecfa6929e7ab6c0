(** Figure 11: TypePointer applied to the *default CUDA allocator* in
    simulation (hardware MMU; paper GM: +18 % over CUDA without changing
    how objects are allocated). *)

val columns : Sweep.column list
(** CUDA, TP/CUDA and DYNA: TypePointer over the default device heap,
    and the other way to restructure that heap. *)

val points :
  ?scale:float -> ?j:int -> ?cache:bool -> ?cache_dir:string ->
  ?workloads:Repro_workloads.Workload.t list -> unit ->
  Repro_report.Series.point list
(** {!Sweep.exec} over {!columns}. Per workload: "CUDA" (1.0), "TP/CUDA"
    and "DYNA" normalized performance, plus the GM row. *)

val series : Repro_report.Series.point list -> Repro_report.Series.t
(** {!points} with the figure's name/title/aggregate attached. *)

val render : Repro_report.Series.point list -> string

val csv : Repro_report.Series.point list -> string
