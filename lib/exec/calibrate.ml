open Sjos_cost
module Work = Sjos_obs.Work

let features (w : Work.t) =
  [|
    float_of_int w.Work.candidates_scanned;
    w.Work.sort_cost;
    float_of_int w.Work.io_items;
    float_of_int w.Work.stack_ops;
  |]

let predict = Executor.cost_units

(* Solve the 4x4 normal equations (X^T X) b = X^T y by Gaussian elimination
   with partial pivoting; returns None when the system is singular. *)
let solve a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let ok = ref true in
  for col = 0 to n - 1 do
    (* pivot *)
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    if Float.abs a.(!pivot).(col) < 1e-12 then ok := false
    else begin
      if !pivot <> col then begin
        let tmp = a.(col) in
        a.(col) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tb = b.(col) in
        b.(col) <- b.(!pivot);
        b.(!pivot) <- tb
      end;
      for r = 0 to n - 1 do
        if r <> col then begin
          let factor = a.(r).(col) /. a.(col).(col) in
          for c = col to n - 1 do
            a.(r).(c) <- a.(r).(c) -. (factor *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (factor *. b.(col))
        end
      done
    end
  done;
  if not !ok then None
  else Some (Array.init n (fun i -> b.(i) /. a.(i).(i)))

let fallback observations =
  (* keep the default proportions, scale to match total observed time *)
  let predicted, actual =
    List.fold_left
      (fun (p, a) (m, seconds) ->
        (p +. predict Cost_model.default m, a +. seconds))
      (0.0, 0.0) observations
  in
  let scale = if predicted > 0.0 then actual /. predicted else 1.0 in
  let d = Cost_model.default in
  Cost_model.make
    ~f_index:(d.Cost_model.f_index *. scale)
    ~f_sort:(d.Cost_model.f_sort *. scale)
    ~f_io:(d.Cost_model.f_io *. scale)
    ~f_stack:(d.Cost_model.f_stack *. scale)
    ()

let mean_relative_error f observations =
  let total, count =
    List.fold_left
      (fun (total, count) (m, actual) ->
        if actual > 0.0 then
          (total +. (Float.abs (predict f m -. actual) /. actual), count + 1)
        else (total, count))
      (0.0, 0) observations
  in
  if count = 0 then 0.0 else total /. float_of_int count

let fit observations =
  if observations = [] then invalid_arg "Calibrate.fit: no observations";
  let xs = List.map (fun (m, _) -> features m) observations in
  let ys = List.map snd observations in
  let xtx = Array.make_matrix 4 4 0.0 in
  let xty = Array.make 4 0.0 in
  (* weighted least squares with weights 1/y^2: minimizes the *relative*
     error, so sub-millisecond runs count as much as second-long ones *)
  List.iter2
    (fun x y ->
      if y > 0.0 then begin
        let w = 1.0 /. (y *. y) in
        for i = 0 to 3 do
          for j = 0 to 3 do
            xtx.(i).(j) <- xtx.(i).(j) +. (w *. x.(i) *. x.(j))
          done;
          xty.(i) <- xty.(i) +. (w *. x.(i) *. y)
        done
      end)
    xs ys;
  let fallback = fallback observations in
  match solve xtx xty with
  | Some b ->
      let clamp v = Float.max 0.0 v in
      let fitted =
        Cost_model.make ~f_index:(clamp b.(0)) ~f_sort:(clamp b.(1))
          ~f_io:(clamp b.(2)) ~f_stack:(clamp b.(3)) ()
      in
      (* clamping negative coefficients can wreck the fit (noisy, nearly
         collinear counters); keep whichever model predicts better *)
      if
        mean_relative_error fitted observations
        <= mean_relative_error fallback observations
      then fitted
      else fallback
  | None -> fallback
