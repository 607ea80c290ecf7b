(* An independent match counter, for seeds without pinned answers.

   It shares no code with the optimizer or the join kernels: one pass
   over the document's nodes in reverse pre-order (children before
   parents) counts, for every pattern node q and document node v, the
   matches m(q, v) of q's sub-pattern rooted at v.  With c(q, v) and
   d(q, v) the sums of m(q, .) over v's children and proper
   descendants,

     m(q, v) = [v satisfies q's label]
               * product over children q' of q of
                 (c(q', v) if the edge is "/" else d(q', v))

   and the pattern's match count is the sum of m(root, v).  Time and
   memory are O(document size x pattern size). *)

module Pattern = Sjos_pattern.Pattern

let count doc pat =
  let nodes = Sjos_xml.Document.nodes doc in
  let n = Array.length nodes and k = Pattern.node_count pat in
  let m = Array.init k (fun _ -> Array.make n 0) in
  let c = Array.init k (fun _ -> Array.make n 0) in
  let d = Array.init k (fun _ -> Array.make n 0) in
  let kids = Array.init k (fun q -> Pattern.children_of pat q) in
  let total = ref 0 in
  for v = n - 1 downto 0 do
    let node = nodes.(v) in
    for q = 0 to k - 1 do
      if Sjos_storage.Candidate.matches (Pattern.label pat q) node then
        m.(q).(v) <-
          List.fold_left
            (fun acc (q', (e : Pattern.edge)) ->
              acc
              * (match e.axis with
                | Sjos_xml.Axes.Child -> c.(q').(v)
                | Sjos_xml.Axes.Descendant -> d.(q').(v)))
            1 kids.(q);
      let p = node.Sjos_xml.Node.parent in
      if p >= 0 then begin
        c.(q).(p) <- c.(q).(p) + m.(q).(v);
        d.(q).(p) <- d.(q).(p) + m.(q).(v) + d.(q).(v)
      end
    done;
    total := !total + m.(0).(v)
  done;
  !total
