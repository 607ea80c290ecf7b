open Sjos_pattern

type t = {
  pat : Pattern.t;
  grid : int;
  catalog : Catalog.t;
  entries : Catalog.entry option array;  (* per pattern node, on first use *)
  sel_memo : (int * int, float) Hashtbl.t;  (* (anc, desc) -> selectivity *)
  cluster_memo : (int, float) Hashtbl.t;
}

let create ?(grid = 32) catalog pat =
  {
    pat;
    grid;
    catalog;
    entries = Array.make (Pattern.node_count pat) None;
    sel_memo = Hashtbl.create 16;
    cluster_memo = Hashtbl.create 64;
  }

let pattern t = t.pat

let entry t i =
  match t.entries.(i) with
  | Some e -> e
  | None ->
      let e = Catalog.find t.catalog ~grid:t.grid (Pattern.label t.pat i) in
      t.entries.(i) <- Some e;
      e

let hist t i = Catalog.histogram (entry t i)
let slices t i = Catalog.slices t.catalog (entry t i)
let node_card t i = Catalog.cardinality (entry t i)

let prefetch t =
  for i = 0 to Pattern.node_count t.pat - 1 do
    ignore (entry t i)
  done;
  List.iter
    (fun (e : Pattern.edge) ->
      if e.Pattern.axis = Sjos_xml.Axes.Child then begin
        ignore (slices t e.Pattern.anc);
        ignore (slices t e.Pattern.desc)
      end)
    (Pattern.edges t.pat)

let edge_selectivity t (e : Pattern.edge) =
  match Hashtbl.find_opt t.sel_memo (e.Pattern.anc, e.Pattern.desc) with
  | Some s -> s
  | None ->
      let s =
        match e.Pattern.axis with
        | Sjos_xml.Axes.Descendant ->
            Estimator.selectivity e.Pattern.axis ~anc:(hist t e.Pattern.anc)
              ~desc:(hist t e.Pattern.desc)
        | Sjos_xml.Axes.Child ->
            (* level-sliced histograms capture the parent-child correlation
               the global level factor misses *)
            let pairs =
              Estimator.parent_child_by_level ~anc:(slices t e.Pattern.anc)
                ~desc:(slices t e.Pattern.desc)
            in
            let ca = node_card t e.Pattern.anc
            and cd = node_card t e.Pattern.desc in
            if ca <= 0.0 || cd <= 0.0 then 0.0
            else Float.min 1.0 (Float.max 0.0 (pairs /. (ca *. cd)))
      in
      Hashtbl.replace t.sel_memo (e.Pattern.anc, e.Pattern.desc) s;
      s

let edge_pairs t (e : Pattern.edge) =
  edge_selectivity t e *. node_card t e.Pattern.anc *. node_card t e.Pattern.desc

let full_mask t = (1 lsl Pattern.node_count t.pat) - 1

let cluster_root pat mask =
  if mask = 0 then invalid_arg "Cardinality.cluster_root: empty cluster";
  let rec toward_root i =
    match Pattern.parent_of pat i with
    | Some (p, _) when mask land (1 lsl p) <> 0 -> toward_root p
    | _ -> i
  in
  (* start from any member *)
  let rec first i = if mask land (1 lsl i) <> 0 then i else first (i + 1) in
  toward_root (first 0)

let is_connected pat mask =
  if mask = 0 then false
  else begin
    let root = cluster_root pat mask in
    let seen = ref (1 lsl root) in
    let rec dfs i =
      List.iter
        (fun (j, _) ->
          if mask land (1 lsl j) <> 0 && !seen land (1 lsl j) = 0 then begin
            seen := !seen lor (1 lsl j);
            dfs j
          end)
        (Pattern.neighbors pat i)
    in
    dfs root;
    !seen = mask
  end

let cluster_card t mask =
  if mask = 0 then invalid_arg "Cardinality.cluster_card: empty cluster";
  match Hashtbl.find_opt t.cluster_memo mask with
  | Some c -> c
  | None ->
      if not (is_connected t.pat mask) then
        invalid_arg "Cardinality.cluster_card: cluster not connected";
      let rec matches u =
        let base = node_card t u in
        List.fold_left
          (fun acc (c, e) ->
            if mask land (1 lsl c) <> 0 then
              acc *. edge_selectivity t e *. matches c
            else acc)
          base
          (Pattern.children_of t.pat u)
      in
      let c = matches (cluster_root t.pat mask) in
      Hashtbl.replace t.cluster_memo mask c;
      c
