(* Golden IO counters: what the Disk backend's buffer pool and the
   executor charge for the Table 1 queries (each on its seeded test
   document) and the headline Mbench pattern eNest(//eNest(/eOccasional)),
   at two pool geometries.  Per (document, query, page size, pool pages),
   from a cold pool: [Pager.stats] accesses, hits, misses, evictions,
   then [Work] page_touches, items_skipped, comparisons.

   These pin the page-access order of the lazy leaves bit for bit: a
   change that moves any of them (a different ensure order, a merged or
   split touch) is a behaviour change of the IO model, not a
   refactoring. *)

let geometries = [ (64, 4); (64, 64) ]

let table =
  [
    ( "pers_1k", "Q.Pers.1.a", 64, 4,
      [| 2010; 958; 1052; 1048; 2010; 191; 2368 |] );
    ( "pers_1k", "Q.Pers.2.c", 64, 4,
      [| 2993; 1471; 1522; 1518; 2993; 509; 3376 |] );
    ( "pers_1k", "Q.Pers.3.d", 64, 4,
      [| 3386; 1938; 1448; 1444; 3386; 558; 3960 |] );
    ( "pers_1k", "Q.Pers.4.d", 64, 4,
      [| 3500; 2477; 1023; 1019; 3500; 552; 4340 |] );
    ( "dblp_1k", "Q.DBLP.1.b", 64, 4,
      [| 616; 498; 118; 114; 616; 594; 62 |] );
    ( "dblp_1k", "Q.DBLP.2.c", 64, 4,
      [| 1382; 933; 449; 445; 1382; 242; 301 |] );
    ( "mbench_1k", "Q.Mbench.1.a", 64, 4,
      [| 180; 0; 180; 176; 180; 0; 7 |] );
    ( "mbench_1k", "Q.Mbench.2.b", 64, 4,
      [| 574; 383; 191; 187; 574; 11; 119 |] );
    ( "mbench_1k", "eNest(//eNest(/eOccasional))", 64, 4,
      [| 5815; 5186; 629; 625; 5815; 1313; 2668 |] );
    ( "pers_1k", "Q.Pers.1.a", 64, 64,
      [| 2010; 1958; 52; 0; 2010; 191; 2368 |] );
    ( "pers_1k", "Q.Pers.2.c", 64, 64,
      [| 2993; 2933; 60; 0; 2993; 509; 3376 |] );
    ( "pers_1k", "Q.Pers.3.d", 64, 64,
      [| 3386; 3326; 60; 0; 3386; 558; 3960 |] );
    ( "pers_1k", "Q.Pers.4.d", 64, 64,
      [| 3500; 3440; 60; 0; 3500; 552; 4340 |] );
    ( "dblp_1k", "Q.DBLP.1.b", 64, 64,
      [| 616; 566; 50; 0; 616; 594; 62 |] );
    ( "dblp_1k", "Q.DBLP.2.c", 64, 64,
      [| 1382; 1334; 48; 0; 1382; 242; 301 |] );
    ( "mbench_1k", "Q.Mbench.1.a", 64, 64,
      [| 180; 120; 60; 0; 180; 0; 7 |] );
    ( "mbench_1k", "Q.Mbench.2.b", 64, 64,
      [| 574; 506; 68; 4; 574; 11; 119 |] );
    ( "mbench_1k", "eNest(//eNest(/eOccasional))", 64, 64,
      [| 5815; 5717; 98; 34; 5815; 1313; 2668 |] );
  ]
