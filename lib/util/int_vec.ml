type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length v = v.len

let check v i = if i < 0 || i >= v.len then invalid_arg "Int_vec: index out of bounds"

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let ensure v extra =
  let needed = v.len + extra in
  if needed > Array.length v.data then begin
    let cap = ref (Array.length v.data) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    let data = Array.make !cap 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure v 1;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let append_array v a =
  let n = Array.length a in
  ensure v n;
  Array.blit a 0 v.data v.len n;
  v.len <- v.len + n

let blit_to v src dst dst_pos len =
  if src < 0 || len < 0 || src + len > v.len then invalid_arg "Int_vec.blit_to";
  Array.blit v.data src dst dst_pos len

let clear v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Int_vec.truncate";
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let to_array v = Array.sub v.data 0 v.len

let of_array a =
  let v = create ~capacity:(max 1 (Array.length a)) () in
  append_array v a;
  v

let copy v = { data = Array.sub v.data 0 (max 1 v.len); len = v.len }

let unsafe_data v = v.data
