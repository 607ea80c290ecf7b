open Sjos_xml

type t = {
  doc : Document.t;
  by_tag : (string, Node.t array) Hashtbl.t;  (* immutable after [build] *)
  (* (tag, attr) -> value -> sorted nodes; built lazily *)
  by_attr : (string * string, (string, Node.t array) Hashtbl.t) Hashtbl.t;
  (* flat per-tag columns mirroring [by_tag]; built lazily *)
  cols_by_tag : (string, Cols.t) Hashtbl.t;
  (* guards the two lazily-filled tables above: a Hashtbl mutated while
     another domain probes it is a real race (resize moves buckets), so
     every access to them takes the lock.  [by_tag] needs none. *)
  lazy_m : Mutex.t;
}

(* Count-then-fill: one pass sizes each tag's array, a second fills it.
   Pre-order iteration already yields nodes sorted by start position. *)
type bucket = { mutable fill : int; mutable nodes : Node.t array }

let build doc =
  let all = Document.nodes doc in
  let buckets : (string, bucket) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      match Hashtbl.find buckets n.Node.tag with
      | b -> b.fill <- b.fill + 1
      | exception Not_found ->
          Hashtbl.add buckets n.Node.tag { fill = 1; nodes = [||] })
    all;
  let by_tag = Hashtbl.create (Hashtbl.length buckets) in
  Hashtbl.iter
    (fun tag b ->
      b.nodes <- Array.make b.fill all.(0);
      b.fill <- 0;
      Hashtbl.replace by_tag tag b.nodes)
    buckets;
  Array.iter
    (fun n ->
      let b = Hashtbl.find buckets n.Node.tag in
      b.nodes.(b.fill) <- n;
      b.fill <- b.fill + 1)
    all;
  {
    doc;
    by_tag;
    by_attr = Hashtbl.create 8;
    cols_by_tag = Hashtbl.create 16;
    lazy_m = Mutex.create ();
  }

let lookup t tag =
  match Hashtbl.find_opt t.by_tag tag with Some a -> a | None -> [||]

let cols t tag =
  Mutex.lock t.lazy_m;
  let c =
    match Hashtbl.find_opt t.cols_by_tag tag with
    | Some c -> c
    | None ->
        let c =
          match Hashtbl.find_opt t.by_tag tag with
          | None -> Cols.empty
          | Some nodes -> Cols.of_nodes nodes
        in
        Hashtbl.replace t.cols_by_tag tag c;
        c
  in
  Mutex.unlock t.lazy_m;
  c

let lookup_attr t ~tag ~attr ~value =
  Mutex.lock t.lazy_m;
  let table =
    match Hashtbl.find_opt t.by_attr (tag, attr) with
    | Some table -> table
    | None ->
        let buckets : (string, Node.t list ref) Hashtbl.t = Hashtbl.create 16 in
        Array.iter
          (fun n ->
            match Node.attr n attr with
            | Some v -> (
                match Hashtbl.find_opt buckets v with
                | Some l -> l := n :: !l
                | None -> Hashtbl.add buckets v (ref [ n ]))
            | None -> ())
          (lookup t tag);
        let table = Hashtbl.create (Hashtbl.length buckets) in
        Hashtbl.iter
          (fun v l -> Hashtbl.replace table v (Array.of_list (List.rev !l)))
          buckets;
        Hashtbl.replace t.by_attr (tag, attr) table;
        table
  in
  let r =
    match Hashtbl.find_opt table value with Some a -> a | None -> [||]
  in
  Mutex.unlock t.lazy_m;
  r

let warm t =
  Hashtbl.iter (fun tag _ -> ignore (cols t tag)) t.by_tag

let cardinality t tag = Array.length (lookup t tag)

let tags t =
  Hashtbl.fold (fun tag _ acc -> tag :: acc) t.by_tag [] |> List.sort compare

let document t = t.doc
let total_nodes t = Document.size t.doc
