open Sjos_pattern
open Sjos_cost
open Sjos_plan
open Sjos_guard

type ctx = {
  pat : Pattern.t;
  factors : Cost_model.factors;
  provider : Costing.provider;
  edges : Pattern.edge array;
  effort : Effort.t;
  budget : Budget.t;
}

let make_ctx ?(factors = Cost_model.default) ?(budget = Budget.unlimited)
    ~provider pat =
  {
    pat;
    factors;
    provider;
    edges = Array.of_list (Pattern.edges pat);
    effort = Effort.create ();
    budget;
  }

let check_budget ctx =
  Budget.check_search ctx.budget ~during:"optimize"
    ~expanded:ctx.effort.Effort.expanded

let remaining_edges ctx (s : Status.t) =
  let acc = ref [] in
  for i = Array.length ctx.edges - 1 downto 0 do
    if s.Status.joined land (1 lsl i) = 0 then acc := (i, ctx.edges.(i)) :: !acc
  done;
  !acc

(* The hot loops below resolve node→cluster through a dense array built
   once per status ({!Status.cluster_map}) instead of a [List.find] per
   lookup — the list scan is quadratic noise once patterns reach the
   30-node tier. *)
let joinable_m (cmap : Status.cluster Array.t) (e : Pattern.edge) =
  let cu = cmap.(e.Pattern.anc) in
  let cv = cmap.(e.Pattern.desc) in
  cu.Status.mask <> cv.Status.mask
  && cu.Status.order = e.Pattern.anc
  && cv.Status.order = e.Pattern.desc

let edge_joinable (s : Status.t) (e : Pattern.edge) =
  let cu = Status.cluster_of s e.Pattern.anc in
  let cv = Status.cluster_of s e.Pattern.desc in
  cu.Status.mask <> cv.Status.mask
  && cu.Status.order = e.Pattern.anc
  && cv.Status.order = e.Pattern.desc

let is_deadend ctx (s : Status.t) =
  (not (Status.is_final s))
  &&
  let cmap = Status.cluster_map ~n:(Pattern.node_count ctx.pat) s in
  not (List.exists (fun (_, e) -> joinable_m cmap e) (remaining_edges ctx s))

let useful_sort_targets ctx ~joined ~merged_mask =
  let useful = ref [] in
  Array.iteri
    (fun i (e : Pattern.edge) ->
      if joined land (1 lsl i) = 0 then begin
        if merged_mask land (1 lsl e.Pattern.anc) <> 0 then
          useful := e.Pattern.anc :: !useful;
        if merged_mask land (1 lsl e.Pattern.desc) <> 0 then
          useful := e.Pattern.desc :: !useful
      end)
    ctx.edges;
  List.sort_uniq compare !useful

(* Replace the two input clusters by the merged one, keeping the list
   sorted by mask. *)
let merge_clusters (s : Status.t) (cu : Status.cluster) (cv : Status.cluster)
    merged =
  let rest =
    List.filter
      (fun (c : Status.cluster) ->
        c.Status.mask <> cu.Status.mask && c.Status.mask <> cv.Status.mask)
      s.Status.clusters
  in
  List.sort
    (fun (a : Status.cluster) b -> compare a.Status.mask b.Status.mask)
    (merged :: rest)

let expand ?(left_deep = false) ?(lookahead = false) ?(cost_bound = infinity)
    ctx (s : Status.t) =
  (* Budget check before the counter moves: an aborted search has done
     exactly the budgeted number of expansions, and an unlimited budget is
     a single physical-equality test — search order is never perturbed. *)
  check_budget ctx;
  let eff = ctx.effort in
  eff.Effort.expanded <- eff.Effort.expanded + 1;
  let cmap = Status.cluster_map ~n:(Pattern.node_count ctx.pat) s in
  let successors = ref [] in
  let emit status =
    (* Pruning Rule, applied at generation time: a successor whose Cost
       already meets the best complete plan is dead and never considered. *)
    if status.Status.cost < cost_bound then begin
      if lookahead && is_deadend ctx status then
        eff.Effort.pruned_deadend <- eff.Effort.pruned_deadend + 1
      else begin
        eff.Effort.considered <- eff.Effort.considered + 1;
        eff.Effort.generated <- eff.Effort.generated + 1;
        successors := status :: !successors
      end
    end
    else eff.Effort.pruned_bound <- eff.Effort.pruned_bound + 1
  in
  List.iter
    (fun (edge_idx, (e : Pattern.edge)) ->
      if joinable_m cmap e then begin
        let cu = cmap.(e.Pattern.anc) in
        let cv = cmap.(e.Pattern.desc) in
        (* Left-deep rule: after the move, at most one cluster (the growing
           node) may hold several pattern nodes — so the merge must absorb
           every existing composite cluster. *)
        let stays_left_deep =
          let multi_in_inputs =
            (if Status.popcount cu.Status.mask > 1 then 1 else 0)
            + if Status.popcount cv.Status.mask > 1 then 1 else 0
          in
          multi_in_inputs <= 1
          && Status.multi_cluster_count s = multi_in_inputs
        in
        if left_deep && not stays_left_deep then
          eff.Effort.pruned_left_deep <- eff.Effort.pruned_left_deep + 1
        else begin
          let merged_mask = cu.Status.mask lor cv.Status.mask in
          let merged_card = ctx.provider.Costing.cluster_card merged_mask in
          let joined = s.Status.joined lor (1 lsl edge_idx) in
          let will_be_final = merged_mask = (1 lsl Pattern.node_count ctx.pat) - 1 in
          let variants algo =
            let join_cost =
              match algo with
              | Plan.Stack_tree_anc ->
                  Cost_model.stack_tree_anc ctx.factors ~anc:cu.Status.card
                    ~output:merged_card
              | Plan.Stack_tree_desc ->
                  Cost_model.stack_tree_desc ctx.factors ~anc:cu.Status.card
            in
            let natural_order =
              match algo with
              | Plan.Stack_tree_anc -> e.Pattern.anc
              | Plan.Stack_tree_desc -> e.Pattern.desc
            in
            let join_plan =
              Plan.join ~anc_side:cu.Status.plan ~desc_side:cv.Status.plan
                ~edge:e ~algo
            in
            let mk order plan extra =
              emit
                {
                  Status.clusters =
                    merge_clusters s cu cv
                      {
                        Status.mask = merged_mask;
                        order;
                        plan;
                        card = merged_card;
                      };
                  joined;
                  cost = s.Status.cost +. join_cost +. extra;
                }
            in
            mk natural_order join_plan 0.0;
            (* Output re-sorts are only worthwhile toward orders a later
               join can still consume; a final status needs none (the
               order-by sort, if any, is added by [finalize]). *)
            if not will_be_final then
              List.iter
                (fun target ->
                  if target <> natural_order then
                    mk target
                      (Plan.sort join_plan ~by:target)
                      (Cost_model.sort ctx.factors merged_card))
                (useful_sort_targets ctx ~joined ~merged_mask)
          in
          variants Plan.Stack_tree_anc;
          variants Plan.Stack_tree_desc
        end
      end)
    (remaining_edges ctx s);
  !successors

let finalize ctx (s : Status.t) =
  match s.Status.clusters with
  | [ c ] -> (
      match Pattern.order_by ctx.pat with
      | Some r when c.Status.order <> r ->
          ( s.Status.cost +. Cost_model.sort ctx.factors c.Status.card,
            Plan.sort c.Status.plan ~by:r )
      | _ -> (s.Status.cost, c.Status.plan))
  | _ -> invalid_arg "Search.finalize: status is not final"

let ub_cost ctx (s : Status.t) =
  let cmap = Status.cluster_map ~n:(Pattern.node_count ctx.pat) s in
  List.fold_left
    (fun acc (_, (e : Pattern.edge)) ->
      let cu = cmap.(e.Pattern.anc) in
      let cv = cmap.(e.Pattern.desc) in
      if cu.Status.mask = cv.Status.mask then acc
      else
        let merged = cu.Status.mask lor cv.Status.mask in
        let out = ctx.provider.Costing.cluster_card merged in
        acc
        +. Cost_model.stack_tree_anc ctx.factors ~anc:cu.Status.card ~output:out
        +. Cost_model.sort ctx.factors out)
    0.0 (remaining_edges ctx s)

let plan_cost ctx plan =
  let f = ctx.factors and p = ctx.provider in
  (* singletons use the index cardinality, like [Status.start] *)
  let card mask =
    if mask land (mask - 1) = 0 then p.Costing.node_card (Status.popcount (mask - 1))
    else p.Costing.cluster_card mask
  in
  let total = ref 0.0 in
  for i = 0 to Pattern.node_count ctx.pat - 1 do
    total := !total +. Cost_model.index_access f (p.Costing.node_card i)
  done;
  (* post-order over the operators above the scans; returns the mask *)
  let rec ops = function
    | Plan.Index_scan i -> 1 lsl i
    | Plan.Structural_join { anc_side; desc_side; algo; _ } ->
        let a = ops anc_side in
        let m = a lor ops desc_side in
        let anc = card a in
        total :=
          !total
          +.
          (match algo with
          | Plan.Stack_tree_anc -> Cost_model.stack_tree_anc f ~anc ~output:(card m)
          | Plan.Stack_tree_desc -> Cost_model.stack_tree_desc f ~anc);
        m
    | Plan.Sort { input; _ } ->
        let m = ops input in
        total := !total +. Cost_model.sort f (card m);
        m
    | Plan.Holistic { mask; _ } as h ->
        total := !total +. Costing.operator_cost f p h;
        mask
  in
  ignore (ops plan);
  !total
