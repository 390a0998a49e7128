(** LLDP (IEEE 802.1AB) frames, plus the discovery-probe encoding used
    by the NOX-classic topology-discovery module that the paper cites:
    the chassis-ID TLV carries the datapath id and the port-ID TLV the
    output port number. *)

type tlv =
  | Chassis_id of { subtype : int; value : string }
  | Port_id of { subtype : int; value : string }
  | Ttl of int
  | System_name of string
  | Custom of { typ : int; value : string }

type t = { tlvs : tlv list }

val write : Wire.Writer.t -> t -> unit
(** Appends the TLVs and the End-of-LLDPDU TLV. *)

val read : Wire.Reader.t -> (t, string) result
(** Decodes TLVs from the reader's remaining bytes up to the
    End-of-LLDPDU TLV. *)

(** {2 Discovery probes} *)

val discovery_probe : dpid:int64 -> port : int -> t
(** The probe the topology controller emits from [dpid]/[port]. *)

val parse_discovery : t -> (int64 * int) option
(** Recovers [(dpid, port)] from a received probe; [None] for LLDP
    frames that are not discovery probes. *)

val pp : Format.formatter -> t -> unit
