(** A minimal, dependency-free XML parser.

    Supports the subset needed by the data sets and examples: elements,
    attributes (single- or double-quoted), character data, self-closing
    tags, comments, processing instructions, an optional XML declaration,
    and the five predefined entities ([&amp;lt;] etc.) plus decimal/hex
    character references.  DTDs, namespaces and CDATA sections beyond
    pass-through are out of scope.

    Character data between two pieces of markup is one run: its
    references are decoded in place and only the run's leading and
    trailing raw whitespace is trimmed, so [Tom &amp; Jerry] keeps
    both spaces.  CDATA sections are kept verbatim.

    The scanner tracks only a byte offset.  The line and column of a
    {!Parse_error} are computed from that offset when the error is raised
    (1-based, counted in bytes; only a newline byte starts a line).

    Tag and attribute names are interned per document: all nodes with the
    same tag (or attribute name) share one string.  Compare names with
    [String.equal]; physical sharing is an allocation saving, not part of
    the contract. *)

exception Parse_error of { line : int; col : int; message : string }

val parse_string : string -> Document.t
(** Parse a complete document from a string.
    Raises {!Parse_error} on malformed input. *)

val parse_file : string -> Document.t
(** Parse a document from a file.  Raises {!Parse_error} or [Sys_error]. *)

val error_to_string : exn -> string option
(** Human-readable rendering of {!Parse_error}; [None] for other
    exceptions. *)
