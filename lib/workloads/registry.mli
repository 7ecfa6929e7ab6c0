(** The eleven applications of Table 2, in the paper's order, plus
    lookup helpers. *)

val all : Workload.t list
(** TRAF, GOL, STUT, GEN, vE BFS/CC/PR, vEN BFS/CC/PR, RAY, each
    {!Workload.settle_last_iteration}d. *)

val find : string -> Workload.t option
(** Case-insensitive lookup by ["name"] or ["suite/name"] (needed for
    the BFS/CC/PR duplicates). *)

val qualified_name : Workload.t -> string
(** ["suite/name"], unique across the list. *)
