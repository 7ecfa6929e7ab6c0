let all =
  List.map Workload.settle_last_iteration
    ([ Traffic.workload; Automata.game_of_life; Structure.workload;
       Automata.generation ]
     @ Graphchi.all
     @ [ Raytrace.workload ])

let qualified_name (w : Workload.t) = w.Workload.suite ^ "/" ^ w.Workload.name

let find name =
  let needle = String.lowercase_ascii name in
  List.find_opt
    (fun w ->
      String.lowercase_ascii (qualified_name w) = needle
      || String.lowercase_ascii w.Workload.name = needle)
    all
