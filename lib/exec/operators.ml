open Sjos_storage
module Work = Sjos_obs.Work

let index_scan ~width ~slot candidates =
  let work = Work.current () in
  work.Work.candidates_scanned <-
    work.Work.candidates_scanned + Array.length candidates;
  Array.map (fun node -> Tuple.singleton ~width slot node) candidates

let index_scan_batch ~width ~slot (cols : Cols.t) =
  let work = Work.current () in
  work.Work.candidates_scanned <-
    work.Work.candidates_scanned + Array.length cols.Cols.ids;
  Batch.of_ids ~width ~slot cols.Cols.ids

let charge_sort (work : Work.t) n =
  work.Work.sorted_items <- work.Work.sorted_items + n;
  if n > 1 then
    work.Work.sort_cost <-
      work.Work.sort_cost
      +. (float_of_int n *. (Float.log (float_of_int n) /. Float.log 2.0))

let sort ?(budget = Sjos_guard.Budget.unlimited) ~doc ~by tuples =
  Sjos_guard.Budget.check budget ~during:"execute";
  charge_sort (Work.current ()) (Array.length tuples);
  Batch.sort_tuples ~doc ~by tuples

let sort_batch ?(budget = Sjos_guard.Budget.unlimited) ~doc ~by b =
  Sjos_guard.Budget.check budget ~during:"execute";
  charge_sort (Work.current ()) (Batch.length b);
  Batch.sort ~doc ~by b

let sort_legacy ?(budget = Sjos_guard.Budget.unlimited) ~doc ~by tuples =
  Sjos_guard.Budget.check budget ~during:"execute";
  charge_sort (Work.current ()) (Array.length tuples);
  let sorted = Array.copy tuples in
  Array.stable_sort (Tuple.compare_by_slot doc by) sorted;
  sorted
