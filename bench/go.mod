module goofi/bench

go 1.22

require goofi v0.0.0

replace goofi => ../
