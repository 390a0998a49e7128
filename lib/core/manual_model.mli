(** The paper's analytical model of *manual* RouteFlow configuration
    (§2.1): per switch, the administrator spends 5 minutes creating the
    VM, 2 minutes mapping switch interfaces to VM interfaces, and 8
    minutes writing the routing configuration — 15 minutes per switch,
    7 hours for 28 switches, "many days" for 1000. *)

type costs = {
  vm_creation_min : float;
  interface_mapping_min : float;
  routing_config_min : float;
}

val paper_costs : costs
(** 5 / 2 / 8 minutes. *)

val per_switch_minutes : costs -> float

val total_minutes : costs -> switches:int -> float

val pp_duration : Format.formatter -> float -> unit
(** Pretty-prints minutes as "Xh Ym" / "Zd Xh". *)
