(** The unified column record, re-exported into the storage layer.

    [Sjos_storage.Cols] is the canonical name consumers should use; the
    type itself lives in {!Sjos_xml.Cols} (the document's own positional
    columns are the same shape, and the xml layer sits below storage). *)

type t = Sjos_xml.Cols.t = {
  ids : int array;
  starts : int array;
  ends : int array;
  levels : int array;
}

val empty : t
val length : t -> int
val of_nodes : Sjos_xml.Node.t array -> t
val equal : t -> t -> bool
