(* One (g+1)*(g+1) array, row-major.  Before [seal], cell (i,j)'s count
   sits at (i+1, j+1) and row 0 / column 0 stay zero; [seal] turns it, in
   place, into the prefix sums p(i,j) = sum of cells (< i, < j).  Counts
   are integers far below 2^53, so every sum and difference is exact.
   The readers are [@inline] so the estimator's per-cell loop keeps its
   floats unboxed. *)
type t = { g : int; sums : float array; mutable sealed : bool }

let create g =
  if g < 1 then invalid_arg "Grid.create: size must be positive";
  { g; sums = Array.make ((g + 1) * (g + 1)) 0.0; sealed = false }

let size t = t.g

let check t i j =
  if i < 0 || i >= t.g || j < 0 || j >= t.g then
    invalid_arg (Printf.sprintf "Grid: cell (%d,%d) out of range" i j)

let[@inline] at t i j = t.sums.((i * (t.g + 1)) + j)

let add t i j =
  if t.sealed then invalid_arg "Grid.add: grid already sealed";
  check t i j;
  let k = ((i + 1) * (t.g + 1)) + j + 1 in
  t.sums.(k) <- t.sums.(k) +. 1.0

let[@inline] get t i j =
  check t i j;
  if t.sealed then at t (i + 1) (j + 1) -. at t i (j + 1) -. at t (i + 1) j +. at t i j
  else at t (i + 1) (j + 1)

let total t =
  if t.sealed then at t t.g t.g else Array.fold_left ( +. ) 0.0 t.sums

let seal t =
  if not t.sealed then begin
    let g = t.g and p = t.sums in
    for i = 1 to g do
      for j = 1 to g do
        p.((i * (g + 1)) + j) <-
          p.((i * (g + 1)) + j)
          +. p.(((i - 1) * (g + 1)) + j)
          +. p.((i * (g + 1)) + j - 1)
          -. p.(((i - 1) * (g + 1)) + j - 1)
      done
    done;
    t.sealed <- true
  end

let[@inline] range_sum t ~i0 ~i1 ~j0 ~j1 =
  if not t.sealed then invalid_arg "Grid.range_sum: call seal first";
  let g = t.g in
  let i0 = max 0 i0 and j0 = max 0 j0 in
  let i1 = min (g - 1) i1 and j1 = min (g - 1) j1 in
  if i0 > i1 || j0 > j1 then 0.0
  else at t (i1 + 1) (j1 + 1) -. at t i0 (j1 + 1) -. at t (i1 + 1) j0 +. at t i0 j0
