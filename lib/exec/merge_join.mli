(** MPMGJN — the multi-predicate merge join of Zhang et al. ("On Supporting
    Containment Queries in RDBMS", SIGMOD 2001), the binary structural join
    the Stack-Tree algorithms were designed to beat (the paper's §2.2.1
    cites it as an alternative access method).

    Like Stack-Tree it merges two inputs sorted by the join nodes, but it
    has no stack: for every ancestor it re-scans the descendant input from
    the first position that can still fall inside the ancestor's interval.
    With deeply nested ancestors the same descendants are scanned over and
    over, so its work is super-linear exactly where Stack-Tree stays linear
    — the ablation benchmark quantifies this.

    Output is ordered by the ancestor side.  Scan steps are charged to
    [Work.stack_ops] so cost units remain comparable. *)

open Sjos_xml

val join :
  doc:Document.t ->
  axis:Axes.axis ->
  anc:Tuple.t array * int ->
  desc:Tuple.t array * int ->
  Tuple.t array
(** Same contract as {!Stack_tree.join} with [algo = Stack_tree_anc]
    (ancestor-ordered output); raises [Invalid_argument] on unsorted
    input. *)
