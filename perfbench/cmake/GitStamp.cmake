# src/obs runs ${CMAKE_SOURCE_DIR}/cmake/GitStamp.cmake; in this standalone
# build CMAKE_SOURCE_DIR is perfbench/, so forward to the repository's script.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/GitStamp.cmake)
