(* Calls into the library that every workload shares, each wrapped in
   the span of the layer it enters. *)

open Sjos_engine
module Optimizer = Sjos_core.Optimizer
module Pattern = Sjos_pattern.Pattern

type setup = {
  seconds : float;  (** file on disk -> warm, queryable database *)
  parse_alloc_mb : float;  (** traced run only, else nan *)
  load_alloc_mb : float;  (** of_document + warm; traced run only *)
  of_document_span : int;  (** -1 untraced *)
}

(* File on disk -> warm database.  Untraced, this is exactly
   [load_file] + [warm]; traced, [load_file] is split into its two
   public halves ([Parser.parse_file], [of_document]), which is the same
   work. *)
let setup ~storage ~req path =
  let t0 = Util.now_ns () in
  if not !Spans.on then begin
    let db = Util.load ~storage path in
    Database.warm db;
    ( db,
      {
        seconds = Util.s_since t0;
        parse_alloc_mb = nan;
        load_alloc_mb = nan;
        of_document_span = -1;
      } )
  end
  else begin
    let doc, parse_alloc_mb =
      Util.alloc_mb (fun () ->
          Spans.span ~req "xml" "xml.parse" (fun () ->
              Sjos_xml.Parser.parse_file path))
    in
    let (db, of_doc_id), a1 =
      Util.alloc_mb (fun () ->
          Spans.timed ~req "engine" "engine.of_document" (fun () ->
              Util.of_document ~storage doc))
    in
    let (), a2 =
      Util.alloc_mb (fun () ->
          Spans.span ~req "engine" "engine.warm" (fun () -> Database.warm db))
    in
    ( db,
      {
        seconds = Util.s_since t0;
        parse_alloc_mb;
        load_alloc_mb = a1 +. a2;
        of_document_span = of_doc_id;
      } )
  end

(* Probe the column-store build hidden inside [of_document] (on Disk,
   the column file write) by building the same store again. *)
let probe_store_build ~storage ~req setup db =
  ignore
    (Spans.probe ~parent:setup.of_document_span ~req "storage" "storage.build"
       (fun () ->
         let s = Sjos_storage.Column_store.create ~config:storage (Database.index db) in
         Sjos_storage.Column_store.dispose s))

let parse ~req text =
  Spans.span ~req "pattern" "pattern.parse" (fun () ->
      Sjos_pattern.Parse.pattern text)

(* Probe the parts of a [prepare] that ran under span [parent]:
   fingerprint, histogram building (the provider forced on the full
   mask — histograms are built lazily inside the search, so building the
   provider alone misses them) and, when the plan did not come from the
   cache, the optimizer search on that already-forced provider. *)
let decompose ~parent ~req ~searched db pat =
  if !Spans.on && parent >= 0 then begin
    ignore
      (Spans.probe ~parent ~req "pattern" "pattern.fingerprint" (fun () ->
           Sjos_pattern.Fingerprint.fingerprint pat));
    let full = (1 lsl Pattern.node_count pat) - 1 in
    match
      Spans.probe ~parent ~req "histogram" "histogram.estimate" (fun () ->
          let p = Database.provider db pat in
          ignore (p.Sjos_plan.Costing.cluster_card full);
          p)
    with
    | Some provider when searched ->
        ignore
          (Spans.probe ~parent ~req "core" "core.search" (fun () ->
               Optimizer.optimize_e ~factors:(Database.factors db) ~provider
                 ~engine:Optimizer.Binary Optimizer.Dpp pat))
    | _ -> ()
  end
