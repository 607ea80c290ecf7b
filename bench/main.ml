(* The bench driver: [main.exe [SUITE...]] runs each named suite (the
   paper's tables when none is named), writes its BENCH_*.json and
   perf-history datapoint, and exits 1 if any suite's gate failed.

   Run with: dune exec bench/main.exe -- perf par *)

let suites =
  [
    ("paper", Paper.run);
    ("perf", Perf.run);
    ("par", Par.run);
    ("io", Io.run);
    ("twig", Twig.run);
    ("bigopt", Bigopt.run);
    ("serve", Serve.run);
  ]

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with [] -> [ "paper" ] | l -> l
  in
  let runs =
    List.map
      (fun name ->
        match List.assoc_opt name suites with
        | Some run -> (name, run)
        | None ->
            Harness.die "unknown suite %S (one of: %s)" name
              (String.concat ", " (List.map fst suites)))
      names
  in
  let pass =
    List.fold_left
      (fun pass (suite, run) -> Harness.finish ~suite (run ()) && pass)
      true runs
  in
  if not pass then exit 1
