open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_guard
module Work = Sjos_obs.Work

type entry = { node : Node.t; parent_top : int }
type stack = { mutable items : entry array; mutable len : int }

let dummy_entry =
  {
    node =
      {
        Node.id = -1;
        tag = "";
        start_pos = -1;
        end_pos = -1;
        level = -1;
        parent = -1;
        attrs = [];
        text = "";
      };
    parent_top = -1;
  }

let new_stack () = { items = Array.make 8 dummy_entry; len = 0 }

let push st e =
  if st.len = Array.length st.items then begin
    let items = Array.make (2 * st.len) dummy_entry in
    Array.blit st.items 0 items 0 st.len;
    st.items <- items
  end;
  st.items.(st.len) <- e;
  st.len <- st.len + 1

(* Pattern-node metadata: parent (with axis) and the root-to-node path. *)
let paths_to pat =
  let n = Pattern.node_count pat in
  let path = Array.make n [] in
  for i = 0 to n - 1 do
    let rec up j acc =
      match Pattern.parent_of pat j with
      | None -> j :: acc
      | Some (p, _) -> up p (j :: acc)
    in
    path.(i) <- up i []
  done;
  path

let leaves pat =
  List.filter
    (fun i -> Pattern.children_of pat i = [])
    (List.init (Pattern.node_count pat) Fun.id)

let poll_mask = 255

(* An externally supplied candidate stream (plan hints, fault injection,
   a remote storage tier) is a trust boundary: the merge silently drops
   or fabricates matches on out-of-order input, so ids and document
   order are verified against the document's [starts] column first. *)
let verify_stream ~doc ~what nodes =
  let { Cols.starts; _ } = Document.positions doc in
  let size = Array.length starts in
  let prev = ref min_int in
  Array.iteri
    (fun i (nd : Node.t) ->
      if nd.Node.id < 0 || nd.Node.id >= size then
        Error.fail
          (Error.Corrupt_input
             {
               source = what;
               reason =
                 Printf.sprintf "candidate id %d not in document at position %d"
                   nd.Node.id i;
             });
      let s = Array.unsafe_get starts nd.Node.id in
      if s < !prev then
        Error.fail
          (Error.Corrupt_input
             {
               source = what;
               reason =
                 Printf.sprintf
                   "candidate stream not in document order at position %d" i;
             });
      prev := s)
    nodes;
  nodes

let path_solutions ?(budget = Budget.unlimited) ?candidates index pat =
  let work = Work.current () in
  let n = Pattern.node_count pat in
  let width = n in
  let paths = paths_to pat in
  let streams =
    match candidates with
    | None ->
        Array.init n (fun i -> Candidate.select index (Pattern.label pat i))
    | Some f ->
        let doc = Element_index.document index in
        Array.init n (fun i ->
            verify_stream ~doc
              ~what:
                (Printf.sprintf "candidates(%s)"
                   (Candidate.spec_to_string (Pattern.label pat i)))
              (f i))
  in
  Array.iter
    (fun s ->
      work.Work.candidates_scanned <-
        work.Work.candidates_scanned + Array.length s)
    streams;
  let pos = Array.make n 0 in
  let stacks = Array.init n (fun _ -> new_stack ()) in
  let parent_info =
    Array.init n (fun i ->
        match Pattern.parent_of pat i with
        | None -> None
        | Some (p, e) -> Some (p, e.Pattern.axis))
  in
  let solutions = Array.make n [] in
  (* stream with the smallest next start position *)
  let next_min () =
    let best = ref (-1) and best_start = ref max_int in
    for k = 0 to n - 1 do
      if pos.(k) < Array.length streams.(k) then begin
        let s = streams.(k).(pos.(k)).Node.start_pos in
        if s < !best_start then begin
          best_start := s;
          best := k
        end
      end
    done;
    if !best < 0 then None else Some !best
  in
  let clean_stacks start =
    Array.iter
      (fun st ->
        while st.len > 0 && st.items.(st.len - 1).node.Node.end_pos < start do
          st.len <- st.len - 1;
          work.Work.stack_ops <- work.Work.stack_ops + 1
        done)
      stacks
  in
  (* Expand all root-to-leaf solutions for a just-arrived leaf entry by
     walking the linked stacks toward the root; parent-child edges are
     checked explicitly. *)
  let sol_count = ref 0 in
  let solution_out () =
    work.Work.io_items <- work.Work.io_items + 2;
    work.Work.tuples_emitted <- work.Work.tuples_emitted + 1;
    incr sol_count;
    Budget.check_tuples budget ~during:"execute" ~count:!sol_count
  in
  let emit leaf q entry =
    let rev_path = List.rev paths.(q) in
    (* rev_path = leaf :: parent :: ... :: root *)
    let rec expand chain bound child_node acc =
      match chain with
      | [] ->
          solutions.(leaf) <- acc :: solutions.(leaf);
          solution_out ()
      | k :: rest ->
          let axis =
            match parent_info.(fst child_node) with
            | Some (_, a) -> a
            | None -> assert false
          in
          for j = 0 to bound do
            let e = stacks.(k).items.(j) in
            let ok =
              match axis with
              | Axes.Descendant -> true
              | Axes.Child -> Axes.is_parent e.node (snd child_node)
            in
            if ok then begin
              let t = Array.copy acc in
              t.(k) <- e.node.Node.id;
              expand rest e.parent_top (k, e.node) t
            end
          done
    in
    let base = Tuple.create width in
    base.(q) <- entry.node.Node.id;
    match rev_path with
    | [ _ ] ->
        solutions.(leaf) <- base :: solutions.(leaf);
        solution_out ()
    | _ :: rest -> expand rest entry.parent_top (q, entry.node) base
    | [] -> assert false
  in
  let leaf_nodes = leaves pat in
  let is_leaf = Array.make n false in
  List.iter (fun l -> is_leaf.(l) <- true) leaf_nodes;
  let arrivals = ref 0 in
  let rec loop () =
    match next_min () with
    | None -> ()
    | Some k ->
        incr arrivals;
        if !arrivals land poll_mask = 0 then
          Budget.check budget ~during:"execute";
        let t = streams.(k).(pos.(k)) in
        pos.(k) <- pos.(k) + 1;
        clean_stacks t.Node.start_pos;
        let parent_top =
          match parent_info.(k) with
          | None -> -1
          | Some (p, _) ->
              (* strict ancestors only: skip an equal-interval top entry
                 (same document node candidate for both pattern nodes) *)
              let pt = ref (stacks.(p).len - 1) in
              while
                !pt >= 0
                && stacks.(p).items.(!pt).node.Node.start_pos
                   >= t.Node.start_pos
              do
                decr pt
              done;
              !pt
        in
        if parent_info.(k) = None || parent_top >= 0 then begin
          work.Work.stack_ops <- work.Work.stack_ops + 1;
          let e = { node = t; parent_top } in
          if is_leaf.(k) then emit k k e else push stacks.(k) e
        end;
        loop ()
  in
  loop ();
  List.map (fun l -> (l, List.rev solutions.(l))) leaf_nodes

(* Phase 2: merge path solutions across leaves on their shared slots. *)

let shared_slots mask_a mask_b =
  let rec go i acc =
    if 1 lsl i > mask_a land mask_b then List.rev acc
    else if mask_a land mask_b land (1 lsl i) <> 0 then go (i + 1) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let combine a b =
  Array.init (Array.length a) (fun i -> if a.(i) <> Tuple.unbound then a.(i) else b.(i))

let run ?(budget = Budget.unlimited) ?candidates index pat =
  let work = Work.current () in
  let per_leaf = path_solutions ~budget ?candidates index pat in
  let paths = paths_to pat in
  let mask_of_path leaf =
    List.fold_left (fun m i -> m lor (1 lsl i)) 0 paths.(leaf)
  in
  match per_leaf with
  | [] -> invalid_arg "Twig_join.run: pattern has no leaves"
  | (first_leaf, first) :: rest ->
      let acc_mask = ref (mask_of_path first_leaf) in
      let acc = ref first in
      List.iter
        (fun (leaf, tuples) ->
          let mask = mask_of_path leaf in
          let shared = shared_slots !acc_mask mask in
          (* hash-join on the shared prefix values *)
          let table = Hashtbl.create 64 in
          List.iter
            (fun t ->
              let key = List.map (fun s -> t.(s)) shared in
              Hashtbl.add table key t)
            tuples;
          let joined =
            List.concat_map
              (fun t ->
                let key = List.map (fun s -> t.(s)) shared in
                List.map (fun u -> combine t u) (Hashtbl.find_all table key))
              !acc
          in
          work.Work.tuples_emitted <-
            work.Work.tuples_emitted + List.length joined;
          Budget.check budget ~during:"execute";
          Budget.check_tuples budget ~during:"execute"
            ~count:(List.length joined);
          acc := joined;
          acc_mask := !acc_mask lor mask)
        rest;
      Array.of_list !acc

let count index pat = Array.length (run index pat)
