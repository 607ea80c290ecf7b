(* Querying a shallow bibliography: shows the cardinality estimator at
   work (estimates vs. exact counts) and how the optimizer's choice reacts
   to candidate-set sizes.

   Run with: dune exec examples/dblp_explore.exe *)

open Sjos_engine
open Sjos_pattern

let queries =
  [
    ("articles with authors", "article(/author)");
    ("articles by knuth", "article(/author[.='knuth'])");
    ("inproceedings citing something", "inproceedings(//cite(/title))");
    ("co-citation shape", "dblp(//article(/author),//inproceedings(/cite))");
  ]

let () =
  let doc = Workload.generate ~size:30_000 Workload.Dblp in
  let db = Database.of_document doc in
  let idx = Database.index db in
  Fmt.pr "DBLP-like database: %a@.@." Sjos_storage.Stats.pp (Database.stats db);

  List.iter
    (fun (label, text) ->
      let pattern = Parse.pattern text in
      let provider = Database.provider db pattern in
      let full = (1 lsl Pattern.node_count pattern) - 1 in
      let estimated = provider.Sjos_plan.Costing.cluster_card full in
      let run = Database.run db pattern in
      let actual = Array.length run.exec.Sjos_exec.Executor.tuples in
      Fmt.pr "%-32s %-46s@." label text;
      Fmt.pr "    estimated %-10.0f actual %-10d plan %s@." estimated actual
        (Sjos_plan.Explain.one_line pattern run.opt.Sjos_core.Optimizer.plan);
      ignore idx)
    queries;

  (* Estimation quality per edge for one pattern *)
  let pattern = Parse.pattern "inproceedings(//cite(/title))" in
  let cards = Sjos_histogram.Cardinality.create (Database.catalog db) pattern in
  Fmt.pr "@.Per-edge estimates for %s:@." (Pattern.to_string pattern);
  List.iter
    (fun (e : Pattern.edge) ->
      let est = Sjos_histogram.Cardinality.edge_pairs cards e in
      let mask = (1 lsl e.Pattern.anc) lor (1 lsl e.Pattern.desc) in
      let exact = Sjos_exec.Naive.cluster_count (Database.index db) pattern mask in
      Fmt.pr "  %s%s%s: estimated %.0f, exact %d@."
        (Pattern.name pattern e.Pattern.anc)
        (Sjos_xml.Axes.axis_to_string e.Pattern.axis)
        (Pattern.name pattern e.Pattern.desc)
        est exact)
    (Pattern.edges pattern)
