(** OSPFv2 (RFC 2328) packet and LSA wire formats.

    The ospfd substrate exchanges these over the virtual topology; the
    subset covers what a Quagga deployment inside RouteFlow exercises:
    Hello, Database Description, LS Request, LS Update and LS Ack
    packets, and Router / Network / opaque-body LSAs. LSA checksums use
    the standard Fletcher algorithm; packet checksums use the Internet
    checksum. *)

(** {1 LSAs} *)

type link_type = Point_to_point | Transit | Stub | Virtual_link

type router_link = {
  link_id : Ipv4_addr.t;
  link_data : Ipv4_addr.t;
  link_type : link_type;
  metric : int;
}

type lsa_body =
  | Router of { links : router_link list }
  | Network of { mask : Ipv4_addr.t; attached : Ipv4_addr.t list }
  | Opaque of { lsa_type : int; data : string }

type lsa_key = { k_type : int; k_id : Ipv4_addr.t; k_adv : Ipv4_addr.t }
(** Identity of an LSA inside the LSDB. *)

type lsa_header = {
  h_age : int;
  h_options : int;
  h_key : lsa_key;
  h_seq : int32;
  h_checksum : int;
  h_length : int;
}

type spf_input = private {
  p2p : Ipv4_addr.t array;
      (** the neighbours of the point-to-point links, in link order *)
  p2p_metric : int array;  (** their metrics, index for index *)
  stubs : (Ipv4_addr.Prefix.t * int) array;
      (** the stub links as (prefix, metric), in link order *)
}
(** What SPF and route publication read of a router LSA, derived from
    its body once per instance. Empty for other LSA types. *)

type lsa = private {
  age : int;
  options : int;
  link_state_id : Ipv4_addr.t;
  adv_router : Ipv4_addr.t;
  seq : int32;
  body : lsa_body;
  header : lsa_header;  (** Its header, checksum and length included. *)
  wire : string;  (** Its encoding, checksum included. *)
  spf : spf_input;
      (** Derived from [body] when the instance is built. Every daemon
          holding the instance reads these same arrays, which nobody
          mutates. *)
}
(** One LSA instance. It is encoded once, by {!make_lsa} at origination
    or on receipt by the decoder, and never changes after.

    Instances are shared: one process-wide weak set keyed by the wire
    bytes hands every router that builds or receives the same bytes the
    same value, so N routers' LSDBs hold one copy of each LSA, not N.
    Whether two LSAs are the same value is therefore an accident of
    timing and garbage collection: compare them by {!header_of_lsa}
    ({!compare_instance}) or by their fields, never with [==]. *)

val initial_seq : int32
(** 0x80000001, the first sequence number of any LSA instance. *)

val max_age : int
(** 3600 s; an LSA at MaxAge is being flushed. *)

val make_lsa :
  age:int ->
  options:int ->
  link_state_id:Ipv4_addr.t ->
  adv_router:Ipv4_addr.t ->
  seq:int32 ->
  lsa_body ->
  lsa
(** Encodes the LSA, checksum included, and returns the shared instance
    of those bytes. *)

val key_of_lsa : lsa -> lsa_key

val header_of_lsa : lsa -> lsa_header
(** The [header] field. *)

val compare_instance : lsa_header -> lsa_header -> int
(** Per RFC 2328 §13.1: positive when the first header denotes the more
    recent instance (sequence, then checksum, then age). *)

val lsa_to_wire : lsa -> string
(** The [wire] field. The decoder rejects an LSA whose Fletcher checksum
    does not verify. *)

val fletcher16 : string -> int -> int
(** [fletcher16 region checksum_offset]: checksum of [region] with the
    16-bit field at [checksum_offset] treated as the value to solve
    for. Exposed for tests. *)

(** {1 Packets} *)

type hello = {
  netmask : Ipv4_addr.t;
  hello_interval : int;
  dead_interval : int;
  priority : int;
  dr : Ipv4_addr.t;
  bdr : Ipv4_addr.t;
  neighbors : Ipv4_addr.t list;
}

type db_desc = {
  mtu : int;
  dd_init : bool;
  dd_more : bool;
  dd_master : bool;
  dd_seq : int32;
  headers : lsa_header list;
}

type payload =
  | Hello of hello
  | Db_desc of db_desc
  | Ls_request of lsa_key list
  | Ls_update of lsa list
  | Ls_ack of lsa_header list

type t = { router_id : Ipv4_addr.t; area_id : Ipv4_addr.t; payload : payload }

val size : t -> int
(** Encoded length in bytes, header included. *)

val write : Wire.Writer.t -> t -> unit
(** Appends the packet and patches its length and checksum in place. *)

val read : Wire.Reader.t -> (t, string) result
(** Decodes the packet from the reader's remaining bytes, which the
    packet checksum covers. *)

val pp : Format.formatter -> t -> unit
