open Sjos_xml

(* Group consecutive tuples sharing the join node, as in Stack_tree. *)
let group_by_slot doc tuples slot =
  let groups = ref [] in
  let current_id = ref min_int in
  let current : Tuple.t list ref = ref [] in
  let last_start = ref (-1) in
  let flush () =
    if !current <> [] then
      groups := (Document.node doc !current_id, !current) :: !groups
  in
  Array.iter
    (fun t ->
      let id = Tuple.get t slot in
      if id = Tuple.unbound then
        invalid_arg "Merge_join: join slot unbound in input tuple";
      if id <> !current_id then begin
        let start = (Document.node doc id).Node.start_pos in
        if start < !last_start then
          invalid_arg "Merge_join: input not sorted by its join slot";
        last_start := start;
        flush ();
        current_id := id;
        current := [ t ]
      end
      else current := t :: !current)
    tuples;
  flush ();
  Array.of_list (List.rev !groups)

let join ~doc ~axis ~anc:(anc_tuples, anc_slot) ~desc:(desc_tuples, desc_slot)
    =
  let work = Sjos_obs.Work.current () in
  let ag = group_by_slot doc anc_tuples anc_slot in
  let dg = group_by_slot doc desc_tuples desc_slot in
  let nd = Array.length dg in
  let out = ref [] in
  (* lo = first descendant group that can still start inside the current or
     any later ancestor; it only moves forward across ancestors, but the
     inner scan below it restarts for every ancestor — MPMGJN's weakness *)
  let lo = ref 0 in
  Array.iter
    (fun ((a : Node.t), a_tuples) ->
      while !lo < nd && (fst dg.(!lo)).Node.start_pos <= a.Node.start_pos do
        incr lo
      done;
      let j = ref !lo in
      while !j < nd && (fst dg.(!j)).Node.start_pos < a.Node.end_pos do
        work.Sjos_obs.Work.stack_ops <- work.Sjos_obs.Work.stack_ops + 1;
        let d, d_tuples = dg.(!j) in
        if Axes.related axis ~anc:a ~desc:d then
          List.iter
            (fun ta ->
              List.iter
                (fun td ->
                  out := Tuple.merge ta td :: !out;
                  work.Sjos_obs.Work.tuples_emitted <-
                    work.Sjos_obs.Work.tuples_emitted + 1)
                d_tuples)
            a_tuples;
        incr j
      done)
    ag;
  Array.of_list (List.rev !out)
