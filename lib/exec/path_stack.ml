open Sjos_xml
open Sjos_storage
open Sjos_pattern
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

(* The chain of pattern nodes from the root to the leaf, with the axis
   connecting each node to its child. *)
let chain_of pat =
  if not (Pattern.is_path pat) then
    invalid_arg "Path_stack: pattern is not a simple path";
  let rec go i acc =
    match Pattern.children_of pat i with
    | [] -> List.rev ((i, None) :: acc)
    | [ (c, e) ] -> go c ((i, Some e.Pattern.axis) :: acc)
    | _ -> assert false
  in
  Array.of_list (go 0 [])

let run index pat =
  let work = Work.current () in
  let chain = chain_of pat in
  let n = Array.length chain in
  let width = Pattern.node_count pat in
  let streams =
    Array.map (fun (i, _) -> Candidate.select index (Pattern.label pat i)) chain
  in
  Array.iter
    (fun s ->
      work.Work.candidates_scanned <-
        work.Work.candidates_scanned + Array.length s)
    streams;
  let pos = Array.make n 0 in
  let stacks = Array.init n (fun _ -> new_stack ()) in
  let out = ref [] in
  (* stream with the smallest next start position *)
  let next_min () =
    let best = ref (-1) in
    let best_start = ref max_int in
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
  (* All root-to-leaf solutions ending in [leaf_entry]: walk the linked
     stacks from the leaf toward the root.  [parent_top] bounds the entries
     of the parent stack that contain this entry; parent-child edges are
     checked explicitly (PathStack's standard post-filter). *)
  let emit leaf_entry =
    let rec expand k bound child_node acc =
      if k < 0 then begin
        out := acc :: !out;
        work.Work.tuples_emitted <- work.Work.tuples_emitted + 1
      end
      else
        let axis_to_child =
          match snd chain.(k) with Some a -> a | None -> assert false
        in
        for j = 0 to bound do
          let e = stacks.(k).items.(j) in
          let ok =
            match axis_to_child with
            | Axes.Descendant -> true
            | Axes.Child -> Axes.is_parent e.node child_node
          in
          if ok then begin
            let t = Array.copy acc in
            t.(fst chain.(k)) <- e.node.Node.id;
            expand (k - 1) e.parent_top e.node t
          end
        done
    in
    let base = Tuple.create width in
    base.(fst chain.(n - 1)) <- leaf_entry.node.Node.id;
    if n = 1 then begin
      out := base :: !out;
      work.Work.tuples_emitted <- work.Work.tuples_emitted + 1
    end
    else expand (n - 2) leaf_entry.parent_top leaf_entry.node base
  in
  let rec loop () =
    match next_min () with
    | None -> ()
    | Some k ->
        let t = streams.(k).(pos.(k)) in
        pos.(k) <- pos.(k) + 1;
        clean_stacks t.Node.start_pos;
        (* the parent pointer must reference strict ancestors only; when the
           same document node is a candidate for two adjacent chain
           positions it sits atop the parent stack with an equal interval
           and must be skipped (containment is proper in pattern edges) *)
        let parent_top =
          if k = 0 then -1
          else begin
            let pt = ref (stacks.(k - 1).len - 1) in
            while
              !pt >= 0
              && stacks.(k - 1).items.(!pt).node.Node.start_pos
                 >= t.Node.start_pos
            do
              decr pt
            done;
            !pt
          end
        in
        if k = 0 || parent_top >= 0 then begin
          work.Work.stack_ops <- work.Work.stack_ops + 1;
          let e = { node = t; parent_top } in
          if k = n - 1 then
            (* leaf entries contribute all their solutions immediately and
               never serve as parents: no need to keep them *)
            emit e
          else push stacks.(k) e
        end;
        loop ()
  in
  loop ();
  Array.of_list (List.rev !out)

let count index pat = Array.length (run index pat)
