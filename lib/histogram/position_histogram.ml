open Sjos_storage

type t = {
  grid : Grid.t;
  diag_mass : float array;
      (* per diagonal cell (i, i), the sum over its nodes of
         min(1, width / bucket_width): the probability that a node whose
         start falls uniformly in the same cell lies inside.  Off-diagonal
         cells have none (start bucket < end bucket there means width >=
         bucket span, handled by the coarse rules). *)
  bucket_width : float;
  card : float;
  levels : float array;
}

let bucket_width ~grid ~max_pos =
  if max_pos < 1 then invalid_arg "Position_histogram.build: bad max_pos";
  float_of_int max_pos /. float_of_int grid

let bucket_of ~grid ~bucket_width pos =
  let b = int_of_float (float_of_int pos /. bucket_width) in
  if b < grid - 1 then b else grid - 1

(* One histogram under construction.  [levels] is filled by the caller. *)
let empty ~grid ~bucket_width ~levels =
  {
    grid = Grid.create grid;
    diag_mass = Array.make grid 0.0;
    bucket_width;
    card = 0.0;
    levels;
  }

(* Add row [r] of [c] to [h]'s grid and diagonal mass. *)
let add_row h ~grid (c : Cols.t) r =
  let bucket_width = h.bucket_width in
  let s = Array.unsafe_get c.Cols.starts r and e = Array.unsafe_get c.Cols.ends r in
  let i = bucket_of ~grid ~bucket_width s and j = bucket_of ~grid ~bucket_width e in
  Grid.add h.grid i j;
  if i = j then begin
    (* XML intervals nest or are disjoint, so a node whose start falls
       strictly inside a node is contained in it: the containment
       probability for a same-cell node is linear in the width *)
    let w = float_of_int (e - s) /. bucket_width in
    h.diag_mass.(i) <- h.diag_mass.(i) +. Float.min 1.0 w
  end

let max_level (c : Cols.t) =
  Array.fold_left (fun m l -> if l > m then l else m) 0 c.Cols.levels

let build ?(grid = 32) ~max_pos (c : Cols.t) =
  let bucket_width = bucket_width ~grid ~max_pos in
  let levels = Array.make (max_level c + 2) 0.0 in
  let h = empty ~grid ~bucket_width ~levels in
  for r = 0 to Cols.length c - 1 do
    add_row h ~grid c r;
    let l = c.Cols.levels.(r) in
    levels.(l) <- levels.(l) +. 1.0
  done;
  Grid.seal h.grid;
  { h with card = float_of_int (Cols.length c) }

type slices = { order : int array; at : t option array }

(* The order the level-sliced estimate visits ancestor levels in: the
   iteration order of a 16-bucket [Hashtbl] keyed by level and filled in
   first-appearance order, which is what the estimates have always been
   summed in.  Summing in any other order reassociates the float sum and
   moves estimates in their last bits. *)
let visit_order first_seen =
  let tbl = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.add tbl l ()) first_seen;
  Array.of_list (List.rev (Hashtbl.fold (fun l () acc -> l :: acc) tbl []))

let build_slices ?(grid = 32) ~max_pos (c : Cols.t) =
  let bucket_width = bucket_width ~grid ~max_pos in
  let at = Array.make (max_level c + 1) None in
  let first_seen = ref [] in
  for r = 0 to Cols.length c - 1 do
    let l = c.Cols.levels.(r) in
    let h =
      match at.(l) with
      | Some h -> h
      | None ->
          let h = empty ~grid ~bucket_width ~levels:(Array.make (l + 2) 0.0) in
          at.(l) <- Some h;
          first_seen := l :: !first_seen;
          h
    in
    add_row h ~grid c r;
    h.levels.(l) <- h.levels.(l) +. 1.0
  done;
  let seal l h =
    Grid.seal h.grid;
    { h with card = h.levels.(l) }
  in
  {
    order = visit_order (List.rev !first_seen);
    at = Array.mapi (fun l -> Option.map (seal l)) at;
  }

let slice s l = if l >= 0 && l < Array.length s.at then s.at.(l) else None
let slice_order s = s.order

let grid_size t = Grid.size t.grid
let cardinality t = t.card

let bucket t pos =
  bucket_of ~grid:(Grid.size t.grid) ~bucket_width:t.bucket_width pos

let[@inline] count_in t ~i0 ~i1 ~j0 ~j1 = Grid.range_sum t.grid ~i0 ~i1 ~j0 ~j1
let[@inline] cell t i j = Grid.get t.grid i j

let[@inline] containment_mass t i j =
  if i < 0 || j < 0 || i >= grid_size t || j >= grid_size t then
    invalid_arg "Position_histogram.containment_mass: cell out of range";
  if i = j then t.diag_mass.(i) else 0.0

let level_counts t = t.levels
