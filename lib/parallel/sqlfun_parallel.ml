module Progress = Progress

let map ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match f items.(i) with
           | v -> Ok v
           | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  if jobs <= 1 then work ()
  else
    (* [Domain.join] orders every spawned domain's writes to [results]
       before the reads below *)
    List.iter Domain.join
      (List.init (Stdlib.min jobs n) (fun _ -> Domain.spawn work));
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)
