(** Directed graphs on a fixed set of integer nodes [0 .. n-1].

    This is the shared graph substrate of the whole library: architecture
    templates, configurations and reliability models are all views of a
    [Digraph.t].  The node set is fixed at creation (matching the paper's
    notion of a template, where nodes are fixed and only the interconnection
    structure varies); edges can be added and removed. *)

type t

(** {1 Construction} *)

val create : int -> t
(** [create n] is a graph with nodes [0 .. n-1] and no edges.
    @raise Invalid_argument if [n < 0]. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] is [create n] with every [(u, v)] of [edges] added. *)

val copy : t -> t
(** Independent mutable copy. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds the edge [u -> v].  Idempotent.
    Self-loops are rejected (the paper assumes [e_ii = 0]).
    @raise Invalid_argument on out-of-range nodes or [u = v]. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge g u v] removes [u -> v] if present. *)

(** {1 Queries} *)

val node_count : t -> int
val edge_count : t -> int
val mem_edge : t -> int -> int -> bool
val succ : t -> int -> int list
(** Successors of a node, in increasing order. *)

val pred : t -> int -> int list
(** Predecessors of a node, in increasing order. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val degree : t -> int -> int
(** [degree g v] is [in_degree g v + out_degree g v]. *)

val edges : t -> (int * int) list
(** All edges, in descending lexicographic order. *)

val nodes : t -> int list
(** [0; 1; ...; n-1]. *)

val used_nodes : t -> int list
(** Nodes with at least one incident edge (the [δ_i = 1] nodes of Eq. 1). *)

val is_empty : t -> bool

(** {1 Traversal} *)

val reachable_from : t -> int list -> bool array
(** [reachable_from g roots] marks every node reachable from any root by a
    directed walk (roots themselves included). *)

val co_reachable_to : t -> int list -> bool array
(** [co_reachable_to g targets] marks every node from which some target is
    reachable (targets included). *)

val exists_path : t -> int -> int -> bool
(** [exists_path g u v] is true iff there is a directed walk from [u] to [v]
    (true when [u = v]). *)

val topological_order : t -> int list option
(** [Some order] with every edge going forward in [order], or [None] if the
    graph has a directed cycle. *)

val has_cycle : t -> bool

(** {1 Transformations} *)

val transpose : t -> t
(** Graph with every edge reversed. *)

val induced : t -> bool array -> t
(** [induced g keep] keeps only edges whose endpoints are both marked.
    The node set is unchanged (unused nodes simply become isolated). *)

val union : t -> t -> t
(** Edge-wise union of two graphs over the same node set.
    @raise Invalid_argument if node counts differ. *)

val equal : t -> t -> bool
(** Same node count and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: [digraph(n=..; u->v, ...)]. *)
