open Sjos_storage
open Sjos_pattern
open Sjos_cost
open Sjos_plan
open Sjos_obs
open Sjos_guard

type kernel = [ `Columnar | `Legacy ]

type run = {
  tuples : Tuple.t array;
  work : Work.t;
  cost_units : float;
  seconds : float;
  profile : Explain.measured;
}

let cost_units (f : Cost_model.factors) (w : Work.t) =
  (f.Cost_model.f_index *. float_of_int w.Work.candidates_scanned)
  +. (f.Cost_model.f_stack *. float_of_int w.Work.stack_ops)
  +. (f.Cost_model.f_io *. float_of_int w.Work.io_items)
  +. (f.Cost_model.f_sort *. w.Work.sort_cost)

let op_span_name = function
  | Plan.Index_scan _ -> "exec.index_scan"
  | Plan.Sort _ -> "exec.sort"
  | Plan.Structural_join _ -> "exec.join"
  | Plan.Holistic _ -> "exec.twig"

(* Candidate arrays from our own element index are sorted by construction;
   an externally supplied fetch (plan hints, fault injection, a remote
   storage tier) is a trust boundary and gets verified — the joins silently
   produce garbage on unsorted input otherwise.  The check reads the
   document's [starts] column instead of chasing one [Node.t] record per
   element: that is also exactly what the join kernels will see, since
   they resolve positions through the document, not through the fetched
   records.  An id the document does not know is reported as corrupt
   rather than joined blindly. *)
let verify_document_order ~doc ~what candidates =
  let { Sjos_xml.Cols.starts; _ } = Sjos_xml.Document.positions doc in
  let size = Array.length starts in
  let n = Array.length candidates in
  let prev = ref min_int in
  for i = 0 to n - 1 do
    let id = candidates.(i).Sjos_xml.Node.id in
    if id < 0 || id >= size then
      Error.fail
        (Error.Corrupt_input
           {
             source = what;
             reason =
               Printf.sprintf "candidate id %d not in document at position %d"
                 id i;
           });
    let s = Array.unsafe_get starts id in
    if s < !prev then
      Error.fail
        (Error.Corrupt_input
           {
             source = what;
             reason =
               Printf.sprintf
                 "candidate stream not in document order at position %d" i;
           });
    prev := s
  done;
  candidates

(* One physical engine = how each operator runs and how rows are counted.
   The two instantiations (columnar batches, legacy tuple arrays) share
   the interpreter below, so spans, per-operator work and the run
   profile are produced identically by both.  [root_join] runs the
   plan's outermost join straight to the caller-facing tuple format —
   for the columnar engine that skips one full materialization of the
   (often dominant) root output. *)
type 'r engine = {
  scan : int -> 'r;
  sort_op : int -> 'r -> 'r;
  join_op : Pattern.edge -> Plan.algo -> 'r -> 'r -> 'r;
  root_join : Pattern.edge -> Plan.algo -> 'r -> 'r -> Tuple.t array;
  twig : unit -> 'r;
      (** the holistic operator: candidate acquisition (and its
          accounting) is the engine's own business, so it appears as one
          leaf operator in spans and the run profile *)
  rows : 'r -> int;
  to_tuples : 'r -> Tuple.t array;
}

let execute ?(factors = Cost_model.default) ?(budget = Budget.unlimited)
    ?max_tuples ?fetch ?(kernel = `Columnar) ?pool ?store index pat plan =
  (match Properties.validate pat plan with
  | Ok () -> ()
  | Error msg -> Error.fail (Error.Invalid_plan msg));
  let budget = Budget.cap_tuples budget max_tuples in
  (* No explicit pool means the process-wide default, sized by
     SJOS_DOMAINS (size 1 unless the environment asks for more — the
     kernels then take their serial path unchanged). *)
  let pool =
    match pool with Some p -> p | None -> Sjos_par.Pool.get_default ()
  in
  (* No explicit store means the Mem backend over this index — exactly
     the pre-Column_store behavior (and a cheap wrapper to build).
     Backend selection is the caller's job: {!Sjos_engine.Database}
     threads its configured store through here. *)
  let store =
    match store with
    | Some s ->
        if Column_store.index s != index then
          invalid_arg "Executor.execute: store built over a different index";
        s
    | None -> Column_store.create ~config:Column_store.mem index
  in
  let doc = Element_index.document index in
  let width = Pattern.node_count pat in
  let total = Work.zero () in
  let candidates_for i =
    let spec = Pattern.label pat i in
    match fetch with
    | None -> Column_store.select_nodes store spec
    | Some f ->
        verify_document_order ~doc
          ~what:(Printf.sprintf "candidates(%s)" (Candidate.spec_to_string spec))
          (f spec)
  in
  let t0 = Clock.now_ns () in
  (* Each operator gets its own work scope and its own (monotonic) self
     time, so the run profile prices every operator separately; each
     operator's work is absorbed back into the calling domain and summed
     into the run total. *)
  let run_with : type r. r engine -> Tuple.t array * Explain.measured =
   fun eng ->
    let check_output r =
      Budget.check_tuples budget ~during:"execute" ~count:(eng.rows r);
      r
    in
    (* [measure] owns the span/work/profile bookkeeping; it is
       polymorphic in the produced value so the root operator can produce
       the caller-facing tuple array while interior operators stay in the
       engine's row representation. *)
    let rec eval plan : r * Explain.measured =
      match plan with
      | Plan.Index_scan i ->
          measure plan [] (fun _ -> check_output (eng.scan i)) eng.rows
      | Plan.Sort { input; by } ->
          measure plan [ input ]
            (function [ (r, _) ] -> eng.sort_op by r | _ -> assert false)
            eng.rows
      | Plan.Structural_join { anc_side; desc_side; edge; algo } ->
          measure plan
            [ anc_side; desc_side ]
            (function
              | [ (a, _); (d, _) ] -> check_output (eng.join_op edge algo a d)
              | _ -> assert false)
            eng.rows
      | Plan.Holistic _ ->
          measure plan [] (fun _ -> check_output (eng.twig ())) eng.rows
    and measure :
        'a.
        Plan.t ->
        Plan.t list ->
        ((r * Explain.measured) list -> 'a) ->
        ('a -> int) ->
        'a * Explain.measured =
     fun plan inputs apply rows_of ->
      Budget.check budget ~during:"execute";
      (* the span opens before the inputs run so child operators nest *)
      let span = Trace.begin_span (op_span_name plan) in
      let child_results =
        (* left-to-right: ancestor side before descendant side *)
        List.rev (List.fold_left (fun acc p -> eval p :: acc) [] inputs)
      in
      let op_t0 = Clock.now_ns () in
      (* the operator's own work, children excluded; absorbed back even
         when the operator raises, so an aborted run keeps its partial
         work *)
      let r, own = Work.measure (fun () -> apply child_results) in
      let seconds = Clock.elapsed_seconds ~since:op_t0 in
      let units = cost_units factors own in
      Trace.end_span span
        ~attrs:
          [ ("rows", Json.Int (rows_of r)); ("cost_units", Json.Float units) ];
      Work.merge_into total own;
      ( r,
        {
          Explain.mplan = plan;
          rows = rows_of r;
          units;
          seconds;
          inputs = List.map snd child_results;
        } )
    in
    match plan with
    | Plan.Structural_join { anc_side; desc_side; edge; algo } ->
        measure plan
          [ anc_side; desc_side ]
          (function
            | [ (a, _); (d, _) ] ->
                let tuples = eng.root_join edge algo a d in
                Budget.check_tuples budget ~during:"execute"
                  ~count:(Array.length tuples);
                tuples
            | _ -> assert false)
          Array.length
    | _ ->
        let r, profile = eval plan in
        (eng.to_tuples r, profile)
  in
  let tuples, profile =
    match kernel with
    | `Columnar ->
        (* The columnar engine's row representation is {!Stack_tree.input}:
           a leaf scan on the Disk backend stays a lazy handle all the way
           into the join, so only the pages the skip-ahead merge examines
           are ever read.  Scan accounting is identical either way — one
           index item per candidate, leaf length answered from the
           catalog. *)
        let scan_input i =
          let spec = Pattern.label pat i in
          match fetch with
          | Some f ->
              Stack_tree.Rows
                (Operators.index_scan_batch ~width ~slot:i
                   (Sjos_xml.Cols.of_nodes
                      (verify_document_order ~doc
                         ~what:
                           (Printf.sprintf "candidates(%s)"
                              (Candidate.spec_to_string spec))
                         (f spec))))
          | None -> (
              match Column_store.leaf store spec with
              | Some lf ->
                  let w = Work.current () in
                  w.Work.candidates_scanned <-
                    w.Work.candidates_scanned + Column_store.leaf_length lf;
                  Stack_tree.leaf ~width ~slot:i lf
              | None ->
                  Stack_tree.Rows
                    (Operators.index_scan_batch ~width ~slot:i
                       (Column_store.select store spec)))
        in
        run_with
          {
            scan = scan_input;
            sort_op =
              (fun by r ->
                Stack_tree.Rows
                  (Operators.sort_batch ~budget ~doc ~by
                     (Stack_tree.to_batch r)));
            join_op =
              (fun edge algo a d ->
                Stack_tree.Rows
                  (Stack_tree.join_batch_in ~budget ~pool ~doc
                     ~axis:edge.Pattern.axis ~algo
                     ~anc:(a, edge.Pattern.anc)
                     ~desc:(d, edge.Pattern.desc) ()));
            root_join =
              (fun edge algo a d ->
                Stack_tree.join_root_in ~budget ~pool ~doc
                  ~axis:edge.Pattern.axis ~algo
                  ~anc:(a, edge.Pattern.anc)
                  ~desc:(d, edge.Pattern.desc) ());
            twig =
              (fun () ->
                let inputs = Array.init width scan_input in
                Stack_tree.Rows (Twig_stack.run ~budget ~doc ~pat ~inputs ()));
            rows = Stack_tree.input_rows;
            to_tuples = (fun r -> Batch.to_tuples (Stack_tree.to_batch r));
          }
    | `Legacy ->
        run_with
          {
            scan =
              (fun i -> Operators.index_scan ~width ~slot:i (candidates_for i));
            sort_op =
              (fun by tuples -> Operators.sort_legacy ~budget ~doc ~by tuples);
            join_op =
              (fun edge algo a d ->
                Stack_tree_legacy.join ~budget ~doc
                  ~axis:edge.Pattern.axis ~algo
                  ~anc:(a, edge.Pattern.anc)
                  ~desc:(d, edge.Pattern.desc) ());
            root_join =
              (fun edge algo a d ->
                Stack_tree_legacy.join ~budget ~doc
                  ~axis:edge.Pattern.axis ~algo
                  ~anc:(a, edge.Pattern.anc)
                  ~desc:(d, edge.Pattern.desc) ());
            twig =
              (fun () ->
                let tuples =
                  Twig_join.run ~budget
                    ?candidates:
                      (match fetch with
                      | None -> None
                      | Some _ -> Some candidates_for)
                    index pat
                in
                (* canonical order parity with the columnar kernel:
                   lexicographic by slot value (presentation-only, so
                   uncharged — the columnar kernel's charged ordering
                   pass is part of its merge machinery, this one exists
                   only to make the two engines' outputs comparable) *)
                let cmp (a : Tuple.t) (b : Tuple.t) =
                  let rec go s =
                    if s = width then 0
                    else
                      let c = compare a.(s) b.(s) in
                      if c <> 0 then c else go (s + 1)
                  in
                  go 0
                in
                Array.sort cmp tuples;
                tuples);
            rows = Array.length;
            to_tuples = Fun.id;
          }
  in
  let seconds = Clock.elapsed_seconds ~since:t0 in
  if Registry.enabled () then begin
    Registry.add_seconds (Registry.timer "executor.seconds") seconds;
    Registry.add (Registry.counter "executor.output_tuples") (Array.length tuples)
  end;
  {
    tuples;
    work = total;
    cost_units = cost_units factors total;
    seconds;
    profile;
  }

let count_matches ?factors index pat plan =
  Array.length (execute ?factors index pat plan).tuples
