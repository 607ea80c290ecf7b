(* Large-pattern optimizer tier: bottom-up subset DP over connected
   node-masks, after DPconv's formulation of join ordering as layered
   subset dynamic programming.

   The paper's status search keeps whole partitions of the pattern as
   states, and its work grows about 3x per pattern node (Table 2's
   queries top out at 7).  For tree patterns the per-cluster optimum is
   independent of how the rest of the pattern is partitioned: a cluster
   is a connected subtree, its consumed edges are exactly its internal
   edges, and its useful sort targets (endpoints of still-pending edges)
   are its boundary nodes — none of which depends on the other clusters.
   So the memo can be keyed on [(mask, order)] alone: the best sub-plan
   producing exactly the nodes of [mask], ordered by [order].

   Every connected mask of size [k] splits at each internal edge [e]
   into the rooted subtree below [e.desc] intersected with the mask and
   its complement — both connected, both strictly smaller, so both
   already memoized when masks are processed in popcount order.  The
   split pairs are exactly DPccp's connected sub-pattern / connected
   complement pairs.  Two modes share that recurrence:

   - [Exact] visits every connected mask, with no cap and no bound: it
     is the optimum over the status searches' plan space, in work
     proportional to the sum of the connected masks' sizes.  Its own
     structures allocate nothing per mask: masks get dense slots (a [2^n] slot
     index, so the mode is limited to [exact_max_nodes]), the memo is a
     flat float array keyed by [slot * n + order] with a parallel array
     of back-pointers, and the plan is built only for the winner.
     Equal-cost candidates keep the first one found (joins by member
     index, Stack-Tree-Anc before Stack-Tree-Desc, then sorts), and the
     final pick ties to the lowest order node.

   - [Beam width] bounds the work on 30-40-node patterns with three
     devices:
     - cost-bound pruning against an incumbent: a greedy O(n^2)
       complete plan seeds the upper bound, and any entry whose cost
       alone (a lower bound on any completion, since every cluster's
       cost is part of the final sum) reaches it is dropped
       ([pruned_bound]);
     - a per-layer width cap: after a layer is filled, only the [width]
       cheapest masks (tie-broken by mask value — deterministic)
       survive to seed the next layer.  Layers of patterns with <= 10
       nodes never exceed the default width, so the beam is exact there;
     - budget polling through {!Search.check_budget} once per expanded
       mask, so the guard's deadline/expansion ceilings fire inside the
       enumeration exactly as they do in the status search (the exact
       mode polls the same way).

   Everything is serial and iteration-order-free: masks are processed in
   a fixed order and hashtables are used only for point lookups, so the
   effort counters are deterministic across runs and domain counts. *)

open Sjos_pattern
open Sjos_cost
open Sjos_plan

let default_width = 1024

type entry = { cost : float; plan : Plan.t; card : float }

(* Index of the (single) set bit of a one-bit mask. *)
let bit_index m = Status.popcount (m - 1)

(* Adjacency masks and rooted-subtree masks of the pattern tree (node 0
   is the root). *)
let shape (ctx : Search.ctx) =
  let pat = ctx.Search.pat in
  let n = Pattern.node_count pat in
  let adj = Array.make n 0 in
  Array.iter
    (fun (e : Pattern.edge) ->
      adj.(e.Pattern.anc) <- adj.(e.Pattern.anc) lor (1 lsl e.Pattern.desc);
      adj.(e.Pattern.desc) <- adj.(e.Pattern.desc) lor (1 lsl e.Pattern.anc))
    ctx.Search.edges;
  let subtree = Array.make n 0 in
  let rec fill i =
    let m =
      List.fold_left
        (fun acc (j, _) -> acc lor fill j)
        (1 lsl i) (Pattern.children_of pat i)
    in
    subtree.(i) <- m;
    m
  in
  ignore (fill 0);
  (adj, subtree)

(* ====================== beam mode ====================== *)

let beam ~width (ctx : Search.ctx) =
  if width < 1 then invalid_arg "Bigdp.run: width must be positive";
  let pat = ctx.Search.pat in
  let n = Pattern.node_count pat in
  let full = (1 lsl n) - 1 in
  let eff = ctx.Search.effort in
  let factors = ctx.Search.factors in
  let provider = ctx.Search.provider in
  let edges = ctx.Search.edges in
  let adj, subtree = shape ctx in
  let card_memo : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let card mask =
    match Hashtbl.find_opt card_memo mask with
    | Some c -> c
    | None ->
        (* singletons use the index cardinality, like [Status.start] *)
        let c =
          if mask land (mask - 1) = 0 then
            provider.Costing.node_card (bit_index mask)
          else provider.Costing.cluster_card mask
        in
        Hashtbl.replace card_memo mask c;
        c
  in
  (* ---------- greedy incumbent: a complete plan in O(n^2) ----------
     From each start node, repeatedly apply the cheapest legal move
     absorbing one more scan (re-sorting the growing cluster first when
     its order does not match the edge).  Never uses FP — FP's
     permutation scan is factorial on bushy stars, the very shape this
     tier exists for. *)
  let greedy_from start =
    let mask = ref (1 lsl start) in
    let order = ref start in
    let plan = ref (Plan.scan start) in
    let cost = ref (Cost_model.index_access factors (card !mask)) in
    while !mask <> full do
      let best = ref None in
      Array.iter
        (fun (e : Pattern.edge) ->
          let a_in = !mask land (1 lsl e.Pattern.anc) <> 0 in
          let d_in = !mask land (1 lsl e.Pattern.desc) <> 0 in
          if a_in <> d_in then begin
            let cluster_card = card !mask in
            let other = if a_in then e.Pattern.desc else e.Pattern.anc in
            let scan_cost = Cost_model.index_access factors (card (1 lsl other)) in
            let need = if a_in then e.Pattern.anc else e.Pattern.desc in
            let presort =
              if !order <> need then Cost_model.sort factors cluster_card
              else 0.0
            in
            let merged = !mask lor (1 lsl other) in
            let anc_card =
              if a_in then cluster_card else card (1 lsl e.Pattern.anc)
            in
            List.iter
              (fun algo ->
                let join_cost =
                  match algo with
                  | Plan.Stack_tree_anc ->
                      Cost_model.stack_tree_anc factors ~anc:anc_card
                        ~output:(card merged)
                  | Plan.Stack_tree_desc ->
                      Cost_model.stack_tree_desc factors ~anc:anc_card
                in
                let total = presort +. scan_cost +. join_cost in
                match !best with
                | Some (c, _, _, _) when c <= total -> ()
                | _ -> best := Some (total, e, other, algo))
              [ Plan.Stack_tree_anc; Plan.Stack_tree_desc ]
          end)
        edges;
      match !best with
      | None -> invalid_arg "Bigdp: pattern is not connected"
      | Some (move_cost, e, other, algo) ->
          let a_in = other = e.Pattern.desc in
          let need = if a_in then e.Pattern.anc else e.Pattern.desc in
          let cluster_plan =
            if !order <> need then Plan.sort !plan ~by:need else !plan
          in
          let anc_side, desc_side =
            if a_in then (cluster_plan, Plan.scan other)
            else (Plan.scan other, cluster_plan)
          in
          plan := Plan.join ~anc_side ~desc_side ~edge:e ~algo;
          order :=
            (match algo with
            | Plan.Stack_tree_anc -> e.Pattern.anc
            | Plan.Stack_tree_desc -> e.Pattern.desc);
          mask := !mask lor (1 lsl other);
          cost := !cost +. move_cost
    done;
    (* final order-by sort, mirroring [Search.finalize] *)
    (match Pattern.order_by pat with
    | Some r when !order <> r ->
        cost := !cost +. Cost_model.sort factors (card full);
        plan := Plan.sort !plan ~by:r
    | _ -> ());
    eff.Effort.considered <- eff.Effort.considered + 1;
    (!cost, !plan)
  in
  let incumbent = ref (greedy_from 0) in
  for c = 1 to n - 1 do
    let ((cost, _) as cand) = greedy_from c in
    if cost < fst !incumbent then incumbent := cand
  done;
  let ub = ref (fst !incumbent) in
  if n = 1 then begin
    (* single-node pattern: the scan is the plan (order-by is node 0) *)
    eff.Effort.expanded <- eff.Effort.expanded + 1;
    !incumbent
  end
  else begin
    (* ---------- the subset DP ---------- *)
    let tbl : (int * int, entry) Hashtbl.t = Hashtbl.create 1024 in
    let emit mask order cost plan =
      if cost >= !ub then
        eff.Effort.pruned_bound <- eff.Effort.pruned_bound + 1
      else begin
        eff.Effort.considered <- eff.Effort.considered + 1;
        eff.Effort.generated <- eff.Effort.generated + 1;
        match Hashtbl.find_opt tbl (mask, order) with
        | Some e when e.cost <= cost -> ()
        | _ -> Hashtbl.replace tbl (mask, order) { cost; plan; card = card mask }
      end
    in
    for i = 0 to n - 1 do
      let c = card (1 lsl i) in
      Hashtbl.replace tbl
        (1 lsl i, i)
        {
          cost = Cost_model.index_access factors c;
          plan = Plan.scan i;
          card = c;
        }
    done;
    (* nodes of [mask] in increasing index order *)
    let mask_bits mask =
      let acc = ref [] in
      let m = ref mask in
      while !m <> 0 do
        let low = !m land - !m in
        acc := bit_index low :: !acc;
        m := !m lxor low
      done;
      List.rev !acc
    in
    (* cheapest surviving entry of a mask, any order (ties to the lower
       order index — [mask_bits] is increasing) *)
    let best_of mask =
      List.fold_left
        (fun best o ->
          match (Hashtbl.find_opt tbl (mask, o), best) with
          | None, b -> b
          | Some e, None -> Some (o, e)
          | Some e, Some (_, be) -> if e.cost < be.cost then Some (o, e) else best)
        None (mask_bits mask)
    in
    let expand_mask mask =
      Search.check_budget ctx;
      eff.Effort.expanded <- eff.Effort.expanded + 1;
      let bits = mask_bits mask in
      (* joins: split at each internal edge *)
      Array.iter
        (fun (e : Pattern.edge) ->
          if
            mask land (1 lsl e.Pattern.anc) <> 0
            && mask land (1 lsl e.Pattern.desc) <> 0
          then begin
            let sd = mask land subtree.(e.Pattern.desc) in
            let sa = mask lxor sd in
            match
              ( Hashtbl.find_opt tbl (sa, e.Pattern.anc),
                Hashtbl.find_opt tbl (sd, e.Pattern.desc) )
            with
            | Some ea, Some ed ->
                let out_card = card mask in
                let join algo =
                  let join_cost =
                    match algo with
                    | Plan.Stack_tree_anc ->
                        Cost_model.stack_tree_anc factors ~anc:ea.card
                          ~output:out_card
                    | Plan.Stack_tree_desc ->
                        Cost_model.stack_tree_desc factors ~anc:ea.card
                  in
                  let order =
                    match algo with
                    | Plan.Stack_tree_anc -> e.Pattern.anc
                    | Plan.Stack_tree_desc -> e.Pattern.desc
                  in
                  emit mask order
                    (ea.cost +. ed.cost +. join_cost)
                    (Plan.join ~anc_side:ea.plan ~desc_side:ed.plan ~edge:e
                       ~algo)
                in
                join Plan.Stack_tree_anc;
                join Plan.Stack_tree_desc
            | _ -> () (* a half was pruned away; skip this split *)
          end)
        edges;
      (* sorts: from the cheapest entry toward every boundary node (the
         mask's useful sort targets).  One step suffices: sort cost
         depends only on the cardinality, never on the source order, so
         a sort of a sort is never cheaper. *)
      if mask <> full then
        match best_of mask with
        | None -> ()
        | Some (bo, be) ->
            let scost = be.cost +. Cost_model.sort factors be.card in
            List.iter
              (fun o ->
                if o <> bo && adj.(o) land lnot mask <> 0 then
                  emit mask o scost (Plan.sort be.plan ~by:o))
              bits
    in
    (* Layered enumeration: layer k holds the expanded connected masks
       of popcount k; candidates for k+1 extend each by one frontier
       node.  Over-width layers are cut *before* expansion — candidates
       are ranked by the best entry cost among their generating parents
       (ties by mask value), so the cheap regions of the lattice grow
       first and the cut costs no expansion work.  Entry-less parents
       rank last but are still legal seeds: their supersets can split
       into smaller memoized halves, so dropping them eagerly could
       disconnect the enumeration.  Under the cap every candidate is
       expanded, which keeps the tier exact on small patterns. *)
    let layer = ref (List.init n (fun i -> 1 lsl i)) in
    for _size = 2 to n do
      let scores : (int, float) Hashtbl.t = Hashtbl.create 1024 in
      List.iter
        (fun mask ->
          let pscore =
            match best_of mask with Some (_, e) -> e.cost | None -> infinity
          in
          let frontier =
            List.fold_left (fun acc i -> acc lor adj.(i)) 0 (mask_bits mask)
            land lnot mask
          in
          List.iter
            (fun j ->
              let c = mask lor (1 lsl j) in
              match Hashtbl.find_opt scores c with
              | Some s when s <= pscore -> ()
              | _ -> Hashtbl.replace scores c pscore)
            (mask_bits frontier))
        !layer;
      (* sorted by (score, mask): a total order, so the fold's hashtable
         iteration order never shows *)
      let candidates =
        Hashtbl.fold (fun c s acc -> (s, c) :: acc) scores []
        |> List.sort compare
      in
      let kept, dropped =
        let rec split i = function
          | [] -> ([], 0)
          | x :: tl ->
              if i < width then
                let k, d = split (i + 1) tl in
                (x :: k, d)
              else ([], List.length (x :: tl))
        in
        split 0 candidates
      in
      eff.Effort.pruned_bound <- eff.Effort.pruned_bound + dropped;
      List.iter (fun (_, c) -> expand_mask c) kept;
      layer := List.map snd kept
    done;
    (* finalize the full mask against the incumbent: the cheapest entry
       after the order-by sort, if any, mirroring [Search.finalize] *)
    let finalized o (e : entry) =
      match Pattern.order_by pat with
      | Some r when o <> r ->
          (e.cost +. Cost_model.sort factors e.card, Plan.sort e.plan ~by:r)
      | _ -> (e.cost, e.plan)
    in
    let final =
      List.fold_left
        (fun best o ->
          match Hashtbl.find_opt tbl (full, o) with
          | None -> best
          | Some e -> (
              let ((c, _) as f) = finalized o e in
              match best with
              | Some (bc, _) when bc <= c -> best
              | _ -> Some f))
        None (mask_bits full)
    in
    match final with
    | Some (c, p) when c < fst !incumbent -> (c, p)
    | _ -> !incumbent
  end

(* ====================== exact mode ====================== *)

let exact_max_nodes = 24

(* Every connected mask of the pattern tree, each exactly once, in
   popcount order.  The connected sets whose topmost node is [i] are [i]
   plus, for each child [c], either nothing or a connected set topped by
   [c]; a counting sort then lays the sets out layer by layer. *)
let connected_masks pat =
  let n = Pattern.node_count pat in
  let parts = ref [] in
  let rec topped i =
    let sets =
      List.fold_left
        (fun acc (c, _) ->
          let sub = topped c in
          let la = Array.length acc and ls = Array.length sub in
          let out = Array.make (la * (ls + 1)) 0 in
          Array.blit acc 0 out 0 la;
          for x = 0 to la - 1 do
            for y = 0 to ls - 1 do
              out.(la + (x * ls) + y) <- acc.(x) lor sub.(y)
            done
          done;
          out)
        [| 1 lsl i |] (Pattern.children_of pat i)
    in
    parts := sets :: !parts;
    sets
  in
  ignore (topped 0);
  let all = Array.concat !parts in
  (* [first.(k)]: the number of masks of popcount below [k] *)
  let first = Array.make (n + 2) 0 in
  Array.iter
    (fun m ->
      let k = Status.popcount m in
      first.(k + 1) <- first.(k + 1) + 1)
    all;
  for k = 1 to n + 1 do
    first.(k) <- first.(k) + first.(k - 1)
  done;
  let sorted = Array.make (Array.length all) 0 in
  Array.iter
    (fun m ->
      let k = Status.popcount m in
      sorted.(first.(k)) <- m;
      first.(k) <- first.(k) + 1)
    all;
  sorted

(* One memo candidate: keep it if strictly cheaper than the entry. *)
let[@inline] relax (eff : Effort.t) (cost : float array) (how : int array) k
    (c : float) h =
  eff.Effort.considered <- eff.Effort.considered + 1;
  eff.Effort.generated <- eff.Effort.generated + 1;
  if c < cost.(k) then begin
    cost.(k) <- c;
    how.(k) <- h
  end

let exact (ctx : Search.ctx) =
  let pat = ctx.Search.pat in
  let n = Pattern.node_count pat in
  if n > exact_max_nodes then
    invalid_arg
      (Printf.sprintf "Bigdp.run Exact: %d nodes (the exact mode takes at most %d)"
         n exact_max_nodes);
  let full = (1 lsl n) - 1 in
  let eff = ctx.Search.effort in
  let factors = ctx.Search.factors in
  let provider = ctx.Search.provider in
  let edges = ctx.Search.edges in
  let adj, subtree = shape ctx in
  (* index of the edge entering each non-root node *)
  let up = Array.make n (-1) in
  Array.iteri (fun k (e : Pattern.edge) -> up.(e.Pattern.desc) <- k) edges;
  let masks = connected_masks pat in
  let slot = Array.make (full + 1) (-1) in
  Array.iteri (fun s m -> slot.(m) <- s) masks;
  (* singletons use the index cardinality, like [Status.start] *)
  let card =
    Array.map
      (fun m ->
        if m land (m - 1) = 0 then provider.Costing.node_card (bit_index m)
        else provider.Costing.cluster_card m)
      masks
  in
  (* memo: [cost.(slot * n + order)], and how that entry was built —
     [2 * d + algo] for a join split above member [d] (algo 0 =
     Stack-Tree-Anc, 1 = Stack-Tree-Desc), [-1 - o] for a sort of the
     entry ordered by [o]; singletons are scans *)
  let cost = Array.make (Array.length masks * n) infinity in
  let how = Array.make (Array.length masks * n) 0 in
  Array.iteri
    (fun s m ->
      let base = s * n in
      if m land (m - 1) = 0 then
        cost.(base + bit_index m) <- Cost_model.index_access factors card.(s)
      else begin
        Search.check_budget ctx;
        eff.Effort.expanded <- eff.Effort.expanded + 1;
        (* joins: split at each internal edge, i.e. above each member
           whose parent is a member too *)
        let rest = ref (m land lnot 1) in
        while !rest <> 0 do
          let low = !rest land - !rest in
          rest := !rest lxor low;
          let d = bit_index low in
          let a = edges.(up.(d)).Pattern.anc in
          if m land (1 lsl a) <> 0 then begin
            let sd = m land subtree.(d) in
            let ia = slot.(m lxor sd) in
            let split = cost.((ia * n) + a) +. cost.((slot.(sd) * n) + d) in
            relax eff cost how (base + a)
              (split
              +. Cost_model.stack_tree_anc factors ~anc:card.(ia)
                   ~output:card.(s))
              (2 * d);
            relax eff cost how (base + d)
              (split +. Cost_model.stack_tree_desc factors ~anc:card.(ia))
              ((2 * d) + 1)
          end
        done;
        (* sorts: from the cheapest entry toward every boundary node.
           One step suffices: sort cost depends only on the
           cardinality, so a sort of a sort is never cheaper. *)
        if m <> full then begin
          let bo = ref (-1) and bc = ref infinity in
          let rest = ref m in
          while !rest <> 0 do
            let low = !rest land - !rest in
            rest := !rest lxor low;
            let o = bit_index low in
            if cost.(base + o) < !bc then begin
              bc := cost.(base + o);
              bo := o
            end
          done;
          let sorted = !bc +. Cost_model.sort factors card.(s) in
          let rest = ref m in
          while !rest <> 0 do
            let low = !rest land - !rest in
            rest := !rest lxor low;
            let o = bit_index low in
            if o <> !bo && adj.(o) land lnot m <> 0 then
              relax eff cost how (base + o) sorted (-1 - !bo)
          done
        end
      end)
    masks;
  let rec build m o =
    if m land (m - 1) = 0 then Plan.scan o
    else
      let h = how.((slot.(m) * n) + o) in
      if h < 0 then Plan.sort (build m (-1 - h)) ~by:o
      else
        let d = h / 2 in
        let e = edges.(up.(d)) in
        let sd = m land subtree.(d) in
        Plan.join
          ~anc_side:(build (m lxor sd) e.Pattern.anc)
          ~desc_side:(build sd d) ~edge:e
          ~algo:(if h land 1 = 0 then Plan.Stack_tree_anc else Plan.Stack_tree_desc)
  in
  (* the full mask, after the order-by sort, mirroring [Search.finalize] *)
  let base = slot.(full) * n in
  let resort o =
    match Pattern.order_by pat with
    | Some r when o <> r -> Cost_model.sort factors card.(slot.(full))
    | _ -> 0.0
  in
  let bo = ref 0 in
  for o = 1 to n - 1 do
    if cost.(base + o) +. resort o < cost.(base + !bo) +. resort !bo then bo := o
  done;
  let plan = build full !bo in
  match Pattern.order_by pat with
  | Some r when !bo <> r ->
      (cost.(base + !bo) +. resort !bo, Plan.sort plan ~by:r)
  | _ -> (cost.(base + !bo), plan)

(* ====================== entry point ====================== *)

type mode = Exact | Beam of int

let run mode ctx =
  match mode with Exact -> exact ctx | Beam width -> beam ~width ctx
