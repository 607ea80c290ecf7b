(* Quickstart: parse a document, pose a tree-pattern query, let the
   optimizer pick a structural-join order, and execute it.

   Run with: dune exec examples/quickstart.exe *)

open Sjos_engine

let xml =
  {|<library>
      <shelf floor="1">
        <book genre="db"><title>Transaction Processing</title>
          <author>Gray</author><author>Reuter</author></book>
        <book genre="pl"><title>SICP</title><author>Abelson</author></book>
      </shelf>
      <shelf floor="2">
        <book genre="db"><title>Readings in Databases</title>
          <author>Stonebraker</author></book>
      </shelf>
    </library>|}

let () =
  (* 1. load & index *)
  let db = Database.of_string xml in
  Fmt.pr "Loaded %d element nodes.@."
    (Sjos_xml.Document.size (Database.document db));

  (* 2. a query pattern: shelves containing db books with their authors.
     '/' is parent-child, '//' ancestor-descendant. *)
  let pattern =
    Sjos_pattern.Parse.pattern "shelf(//book[@genre='db'](/author))"
  in
  Fmt.pr "Query pattern: %s@." (Sjos_pattern.Pattern.to_string pattern);

  (* 3. prepare the query: canonicalize, fingerprint, and let the optimizer
     (DPP: optimal plan) choose the join order.  The handle caches the
     chosen plan, so re-executing skips optimization entirely. *)
  let prep = Database.prepare db pattern in
  Fmt.pr "Fingerprint:   %s@." (Database.prepared_fingerprint prep);
  let run = Database.exec prep in
  Fmt.pr "@.Chosen plan (cost estimate %.1f, %d alternatives considered):@.%s"
    run.opt.Sjos_core.Optimizer.est_cost
    run.opt.Sjos_core.Optimizer.plans_considered
    (Sjos_plan.Explain.to_string pattern run.opt.Sjos_core.Optimizer.plan);

  (* 4. inspect the matches: one tuple per (shelf, book, author) triple *)
  let doc = Database.document db in
  Fmt.pr "@.%d matches:@." (Array.length run.exec.Sjos_exec.Executor.tuples);
  Array.iter
    (fun tuple ->
      let node i = Sjos_xml.Document.node doc (Sjos_exec.Tuple.get tuple i) in
      let shelf = node 0 and book = node 1 and author = node 2 in
      Fmt.pr "  floor %s: %s  --  %s@."
        (Option.value ~default:"?" (Sjos_xml.Node.attr shelf "floor"))
        (match Sjos_xml.Document.children doc book with
        | title :: _ -> title.Sjos_xml.Node.text
        | [] -> "?")
        author.Sjos_xml.Node.text)
    run.exec.Sjos_exec.Executor.tuples;

  Fmt.pr "@.Execution work: %a@." Sjos_obs.Work.pp
    run.exec.Sjos_exec.Executor.work;

  (* 5. run it again: the plan comes from the cache — zero search effort *)
  let again = Database.run db pattern in
  Fmt.pr
    "@.Second run: %d matches, %d plans considered (plan served from the \
     cache), %a@."
    (Array.length again.exec.Sjos_exec.Executor.tuples)
    again.opt.Sjos_core.Optimizer.plans_considered Sjos_cache.Plan_cache.pp
    (Database.plan_cache db)
