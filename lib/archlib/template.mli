(** Architecture templates (Definition II.1 and Fig. 1a).

    A template fixes a set of components (nodes) and a set of {e candidate}
    interconnections (edges); an assignment over the candidate edges is a
    {e configuration}.  Each candidate edge carries a switch (contactor)
    cost; a pair of opposite candidate edges may share one physical switch
    (the [(e_ij ∨ e_ji)·c~_ij] term of Eq. 1). *)

type t

val create : Component.t array -> t
(** Nodes are the components, in order; no candidate edges yet. *)

val node_count : t -> int
val component : t -> int -> Component.t
val components : t -> Component.t array

val add_candidate_edge : ?switch_cost:float -> t -> int -> int -> unit
(** Directed candidate edge with its switch cost (default 0).  Adding an
    edge twice keeps the first cost. *)

val add_candidate_pair : ?switch_cost:float -> t -> int -> int -> unit
(** Both directions as candidates, sharing a single switch cost. *)

val candidate_graph : t -> Netgraph.Digraph.t
(** Copy of the current candidate edge set. *)

val candidate_edges : t -> (int * int) list
val is_candidate : t -> int -> int -> bool

val switch_cost : t -> int -> int -> float
(** Cost of the switch on the (unordered) pair [{i, j}]; 0 if neither
    direction is a candidate. *)

val set_sources : t -> int list -> unit
val set_sinks : t -> int list -> unit
val sources : t -> int list
val sinks : t -> int list

val partition : t -> Netgraph.Partition.t
(** Partition [Π] derived from the components' type ids.  Type names come
    from the first component of each type unless {!set_type_names} was
    called. *)

val set_type_names : t -> string array -> unit

val set_type_chain : t -> int list -> unit
(** Declare the layered type order crossed by every source→sink path
    (sources' type first) — the joint-implementation structure the ILP-AR
    encoding relies on (Sec. IV-B). *)

val type_chain : t -> int list option

val add_requirement : t -> Requirement.t -> unit
val requirements : t -> Requirement.t list
(** In insertion order. *)

(** {1 Configurations} *)

val config_of_edges : t -> (int * int) list -> Netgraph.Digraph.t
(** A configuration from selected candidate edges.
    @raise Invalid_argument if an edge is not a candidate. *)

val used_in_config : t -> Netgraph.Digraph.t -> int list
(** Instantiated components: the [δ_i = 1] nodes. *)

val configuration_cost : t -> Netgraph.Digraph.t -> float
(** Eq. 1 evaluated on a configuration: component costs of used nodes plus
    one switch cost per unordered connected pair. *)

val expand_redundant_pairs : t -> Netgraph.Digraph.t -> Netgraph.Digraph.t
(** Expand the same-type-edge shorthand of Sec. V: an edge between two
    same-type nodes [v_i ~ v_j] declares them a redundant (parallel) pair,
    so each inherits the other's direct predecessors and successors (to
    fixpoint).  The expansion only ever {e adds} connectivity that the
    shorthand implies; the same-type edges themselves are kept, which is
    harmless because any path through one is dominated by the inherited
    direct path.  Use the result for reliability analysis of a
    configuration. *)

val validate : t -> (unit, string) result
(** Structural checks: sources/sinks non-empty and disjoint, candidate graph
    references valid nodes, type chain (if set) starts at the sources' type
    and ends at the sinks'.  Stops at the first violation; prefer
    {!validate_all} at trust boundaries. *)

val validate_all : t -> (unit, string list) result
(** Every violation in the template, not just the first: all component
    attribute violations ({!Component.violations}), non-finite or negative
    switch costs, missing / overlapping sources and sinks, requirement
    references to non-candidate edges or unconnectable nodes, the type
    chain checks of {!validate}, and every {!Requirement.Usage_order}
    that breaks its promise: one that names a sink, or whose adjacent
    nodes (sorted by id) differ in type, cost, failure probability,
    capacity, source membership, candidate predecessors or successors,
    the switch costs to them, or in any other requirement that names one
    of the two (the requirement set must map onto itself when the two
    are swapped).  No synthesis entry point calls it: call it where a
    template arrives from outside, such as a library load, to reject it
    with one complete report. *)
