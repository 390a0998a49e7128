(** Critical-path extraction and self-time attribution over the span
    trees the simulator emits (e.g. a switch's {!Phase.Configure} span
    with its four phase children).

    All arithmetic is on the integer-microsecond stamps, so totals and
    self times are exact and two same-seed runs produce byte-identical
    reports. *)

type node = {
  span : Tracer.span;
  n_end_us : int;
      (** [span.end_us], or the dump's latest timestamp for spans still
          open when the dump was taken. *)
  n_total_us : int;  (** [n_end_us - span.start_us] *)
  n_self_us : int;
      (** Total minus the union of child intervals (clipped to this
          span), i.e. time not attributable to any child. For the
          sequential phase children of a configure span, self times of
          a subtree sum exactly to the root total. *)
  children : node list;  (** sorted by start, then id *)
}

type step = {
  cp_name : string;
  cp_span_id : int;
  cp_depth : int;
  cp_total_us : int;
  cp_self_us : int;
}

val forest : Tracer.span list -> node list
(** Builds the span forest: roots sorted by start then id. Spans whose
    parent id is absent from the list are treated as roots of nothing
    (dropped), matching exporter behaviour. *)

val find_longest : name:string -> node list -> node option
(** The longest node named [name] anywhere in the forest; ties break
    to the lowest span id. *)

val critical_path : node -> step list
(** Root-to-leaf chain choosing, at every level, the child with the
    largest total (ties to the lowest id). The head is the node itself;
    each step's depth increments by one. *)

val fold_nodes : ('a -> node -> 'a) -> 'a -> node list -> 'a
(** Pre-order fold over every node in the forest. *)

val pp_path : Format.formatter -> step list -> unit
(** Table with per-step total, self time, and self share of the root
    total. *)
