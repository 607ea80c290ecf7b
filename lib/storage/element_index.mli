(** Tag-name element index.

    Maps each tag to the array of its elements sorted by [start_pos]
    (document order), which is exactly the input format required by the
    Stack-Tree join algorithms.  This plays the role of Timber's
    element-tag index: "accessing an index built on the element tag names
    gives us a list of candidate data nodes for each node in the query
    pattern" (paper, Example 2.1). *)

open Sjos_xml

type t

val build : Document.t -> t
(** Index every element of the document by tag. *)

val lookup : t -> string -> Node.t array
(** Sorted candidate array for a tag; the empty array for unknown tags.
    Callers must not mutate the result. *)

val cols : t -> string -> Cols.t
(** Flat-column view of {!lookup}, built lazily per tag and cached.
    Callers must not mutate the arrays.  Safe to call from any domain
    (the lazy caches are mutex-guarded). *)

val warm : t -> unit
(** Pre-build the per-tag column cache for every tag, so parallel
    queries hit only read paths.  Idempotent. *)

val lookup_attr : t -> tag:string -> attr:string -> value:string -> Node.t array
(** Document-ordered elements with the given tag carrying [attr="value"].
    The secondary index for a [(tag, attr)] pair is built lazily on first
    use and cached, so repeated attribute-predicate scans (the Mbench
    workload) are O(result) rather than O(tag bucket). *)

val cardinality : t -> string -> int
val tags : t -> string list

val document : t -> Document.t
(** The indexed document. *)

val total_nodes : t -> int
