(** The RouteFlow virtual switch (RF-VS).

    Interconnects VM NICs so the virtual environment mirrors the
    physical topology: a NIC pair mapped to a discovered physical link
    exchanges frames directly (the OSPF adjacency path), while frames
    on NICs with no virtual peer — host-facing ports and slow-path
    forwarding — are handed to the physical network as packet-outs
    through the RF-controller. *)

type t

val create : Rf_sim.Engine.t -> t
(** The VM-to-VM path through the virtual switch takes 1 ms. *)

val register_vm : t -> Vm.t -> unit
(** Wires every NIC's transmit side into the virtual switch. *)

val connect_ports : t -> a:(int64 * int) -> b:(int64 * int) -> unit
(** Establishes the virtual link mirroring physical link
    (dpid_a, port_a) — (dpid_b, port_b). Idempotent. Both VMs must be
    registered. *)

val disconnect_ports : t -> a:(int64 * int) -> b:(int64 * int) -> unit

val set_physical_out : t -> (dpid:int64 -> port:int -> string -> unit) -> unit
(** Callback toward the RF-controller: emit this frame as a packet-out
    on the physical switch. *)

val inject_from_physical : t -> dpid:int64 -> port:int -> string -> unit
(** A packet-in relayed down into the corresponding VM NIC. *)

val has_virtual_link : t -> int64 * int -> bool

val virtual_frames : t -> int
(** Frames carried VM-to-VM. *)

val physical_out_frames : t -> int
