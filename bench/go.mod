module avr/bench

go 1.22

require avr v0.0.0

replace avr => ../
