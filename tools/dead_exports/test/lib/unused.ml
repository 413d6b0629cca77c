let nobody = 0
let internal x = x + 1
let doubled = internal 1 * 2
let kept = 3
